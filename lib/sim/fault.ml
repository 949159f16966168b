type direction = Ab | Ba | Both

type kind =
  | Link_down of { a : string; b : string; dir : direction }
  | Link_up of { a : string; b : string; dir : direction }
  | Link_degrade of {
      a : string;
      b : string;
      dir : direction;
      loss : float;
      latency_factor : float;
      until : float;
    }
  | Node_crash of { node : string; preserve_cs : bool }
  | Node_restart of { node : string }
  | Producer_outage of { node : string; until : float }
  | Producer_slowdown of { node : string; factor : float; until : float }

type event = { at : float; kind : kind }

type schedule = event list

let empty = []

let sort events = List.stable_sort (fun e1 e2 -> Float.compare e1.at e2.at) events

let validate e =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if not (Float.is_finite e.at) || e.at < 0. then
    err "fault time %g: expected a non-negative finite time" e.at
  else
    match e.kind with
    | Link_down _ | Link_up _ | Node_crash _ | Node_restart _ -> Ok ()
    | Link_degrade { loss; latency_factor; until; _ } ->
      if loss < 0. || loss > 1. || not (Float.is_finite loss) then
        err "degrade: loss %g out of range [0, 1]" loss
      else if latency_factor <= 0. || not (Float.is_finite latency_factor) then
        err "degrade: latency_factor %g must be positive" latency_factor
      else if not (until > e.at) then
        err "degrade: until=%g must exceed the fault time %g" until e.at
      else Ok ()
    | Producer_outage { until; _ } ->
      if not (until > e.at) then
        err "producer_down: until=%g must exceed the fault time %g" until e.at
      else Ok ()
    | Producer_slowdown { factor; until; _ } ->
      if factor <= 0. || not (Float.is_finite factor) then
        err "producer_slow: factor %g must be positive" factor
      else if not (until > e.at) then
        err "producer_slow: until=%g must exceed the fault time %g" until e.at
      else Ok ()

(* --- random schedules --- *)

(* One on/off renewal process per target, each consuming its slice of
   the RNG stream in target order: the schedule is a pure function of
   (seed, parameters). *)
let renewal_process ~rng ~mean_uptime_ms ~downtime_ms ~horizon_ms ~down ~up =
  if mean_uptime_ms <= 0. || horizon_ms <= 0. then []
  else begin
    let rate = 1. /. mean_uptime_ms in
    let rec go t acc =
      let t = t +. Rng.exponential rng ~rate in
      if t >= horizon_ms then List.rev acc
      else
        go (t +. downtime_ms)
          ({ at = t +. downtime_ms; kind = up } :: { at = t; kind = down } :: acc)
    in
    go 0. []
  end

let random_restarts ~rng ~nodes ~mean_uptime_ms ~downtime_ms ~horizon_ms
    ?(preserve_cs = false) () =
  List.concat_map
    (fun node ->
      renewal_process ~rng ~mean_uptime_ms ~downtime_ms ~horizon_ms
        ~down:(Node_crash { node; preserve_cs })
        ~up:(Node_restart { node }))
    nodes
  |> sort

let phase_boundaries schedule =
  let times =
    List.concat_map
      (fun e ->
        match e.kind with
        | Link_degrade { until; _ }
        | Producer_outage { until; _ }
        | Producer_slowdown { until; _ } -> [ e.at; until ]
        | Link_down _ | Link_up _ | Node_crash _ | Node_restart _ -> [ e.at ])
      schedule
  in
  List.sort_uniq Float.compare times

(* --- text format --- *)

open Scan

let direction_field name s =
  match String.lowercase_ascii s with
  | "ab" -> Ok Ab
  | "ba" -> Ok Ba
  | "both" -> Ok Both
  | _ -> Error (Printf.sprintf "%s: expected ab, ba or both, got %S" name s)

let endpoints ~directive = function
  | a :: b :: rest when not (is_attr a || is_attr b) -> Ok (a, b, rest)
  | _ ->
    Error
      (Printf.sprintf "%s: expected two endpoint names, as in '%s U R'"
         directive directive)

let one_node ~directive = function
  | node :: rest when not (is_attr node) -> Ok (node, rest)
  | _ -> Error (Printf.sprintf "%s: expected a node name" directive)

let dir_attr ~directive attrs =
  attr_field attrs "dir" ~default:Both (fun _ -> direction_field (directive ^ " dir"))

let required_float ~directive attrs key =
  match attr attrs key with
  | Some v -> float_field key v
  | None -> Error (Printf.sprintf "%s: missing required %s=MS" directive key)

let parse_kind_tokens tokens =
  match tokens with
  | "link_down" :: rest ->
    let* a, b, rest = endpoints ~directive:"link_down" rest in
    let* attrs = parse_attrs ~directive:"link_down" ~allowed:[ "dir" ] rest in
    let* dir = dir_attr ~directive:"link_down" attrs in
    Ok (Link_down { a; b; dir })
  | "link_up" :: rest ->
    let* a, b, rest = endpoints ~directive:"link_up" rest in
    let* attrs = parse_attrs ~directive:"link_up" ~allowed:[ "dir" ] rest in
    let* dir = dir_attr ~directive:"link_up" attrs in
    Ok (Link_up { a; b; dir })
  | "degrade" :: rest ->
    let* a, b, rest = endpoints ~directive:"degrade" rest in
    let* attrs =
      parse_attrs ~directive:"degrade"
        ~allowed:[ "dir"; "loss"; "latency_factor"; "until" ]
        rest
    in
    let* dir = dir_attr ~directive:"degrade" attrs in
    let* loss = attr_field attrs "loss" ~default:0. float_field in
    let* latency_factor = attr_field attrs "latency_factor" ~default:1. float_field in
    let* until = required_float ~directive:"degrade" attrs "until" in
    Ok (Link_degrade { a; b; dir; loss; latency_factor; until })
  | "crash" :: rest ->
    let* node, rest = one_node ~directive:"crash" rest in
    let* attrs = parse_attrs ~directive:"crash" ~allowed:[ "preserve_cs" ] rest in
    let* preserve_cs = attr_field attrs "preserve_cs" ~default:false bool_field in
    Ok (Node_crash { node; preserve_cs })
  | "restart" :: rest ->
    let* node, rest = one_node ~directive:"restart" rest in
    let* _ = parse_attrs ~directive:"restart" ~allowed:[] rest in
    Ok (Node_restart { node })
  | "producer_down" :: rest ->
    let* node, rest = one_node ~directive:"producer_down" rest in
    let* attrs = parse_attrs ~directive:"producer_down" ~allowed:[ "until" ] rest in
    let* until = required_float ~directive:"producer_down" attrs "until" in
    Ok (Producer_outage { node; until })
  | "producer_slow" :: rest ->
    let* node, rest = one_node ~directive:"producer_slow" rest in
    let* attrs =
      parse_attrs ~directive:"producer_slow" ~allowed:[ "factor"; "until" ] rest
    in
    let* factor = attr_field attrs "factor" ~default:2. float_field in
    let* until = required_float ~directive:"producer_slow" attrs "until" in
    Ok (Producer_slowdown { node; factor; until })
  | directive :: _ ->
    Error
      (Printf.sprintf
         "unknown fault kind %S (expected link_down, link_up, degrade, crash, \
          restart, producer_down or producer_slow)"
         directive)
  | [] -> Error "expected a fault kind after the time"

let parse_event_tokens tokens =
  match tokens with
  | [] -> Error "expected 'TIME KIND ...'"
  | time :: rest ->
    let* at = float_field "fault time" time in
    let* kind = parse_kind_tokens rest in
    let e = { at; kind } in
    let* () = validate e in
    Ok e

let parse text =
  let* events =
    fold_lines text ~init:[] ~f:(fun acc ~line:_ tokens ->
        let* e = parse_event_tokens tokens in
        Ok (e :: acc))
  in
  Ok (sort (List.rev events))

let direction_str = function Ab -> "ab" | Ba -> "ba" | Both -> "both"

let print_event e =
  let time = float_str e.at in
  match e.kind with
  | Link_down { a; b; dir } ->
    Printf.sprintf "%s link_down %s %s dir=%s" time a b (direction_str dir)
  | Link_up { a; b; dir } ->
    Printf.sprintf "%s link_up %s %s dir=%s" time a b (direction_str dir)
  | Link_degrade { a; b; dir; loss; latency_factor; until } ->
    Printf.sprintf "%s degrade %s %s dir=%s loss=%s latency_factor=%s until=%s"
      time a b (direction_str dir) (float_str loss) (float_str latency_factor)
      (float_str until)
  | Node_crash { node; preserve_cs } ->
    Printf.sprintf "%s crash %s preserve_cs=%b" time node preserve_cs
  | Node_restart { node } -> Printf.sprintf "%s restart %s" time node
  | Producer_outage { node; until } ->
    Printf.sprintf "%s producer_down %s until=%s" time node (float_str until)
  | Producer_slowdown { node; factor; until } ->
    Printf.sprintf "%s producer_slow %s factor=%s until=%s" time node
      (float_str factor) (float_str until)

let print schedule =
  String.concat "" (List.map (fun e -> print_event e ^ "\n") schedule)
