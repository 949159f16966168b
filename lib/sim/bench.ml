(* Micro-benchmark harness for the perf-regression suite (bench core).

   Lives in lib/ so benchmark executables and tests share one
   measurement discipline, but — per the repo's determinism rules
   (ndnlint D3: no wall-clock reads outside bin/) — it never reads a
   clock itself: callers inject [clock_ns], typically
   [Bechamel.Monotonic_clock] or [Unix.gettimeofday] scaled, from their
   executable. *)

type result = {
  label : string;
  ns_per_op : float;
  allocs_per_op : float;
      (* minor-heap words allocated per operation (Gc.minor_words) *)
  ops : int;
  runs : int;
}

let measure ~clock_ns ?(warmup = 2) ?(runs = 5) ~label ~ops f =
  if ops <= 0 then invalid_arg "Bench.measure: ops must be positive";
  if runs <= 0 then invalid_arg "Bench.measure: runs must be positive";
  for _ = 1 to warmup do
    f ops
  done;
  let best_ns = ref infinity in
  let best_words = ref infinity in
  for _ = 1 to runs do
    (* Settle the heap so a promotion triggered by earlier runs does not
       bill its minor collections to this one. *)
    Gc.full_major ();
    let t0 = clock_ns () in
    let w0 = Gc.minor_words () in
    f ops;
    let w1 = Gc.minor_words () in
    let t1 = clock_ns () in
    let per = 1.0 /. float_of_int ops in
    let ns = (t1 -. t0) *. per in
    let words = (w1 -. w0) *. per in
    if ns < !best_ns then best_ns := ns;
    if words < !best_words then best_words := words
  done;
  { label; ns_per_op = !best_ns; allocs_per_op = !best_words; ops; runs }

(* Minimum across runs, not mean: the distribution of a microbenchmark
   is one-sided (preemption, collections only ever add time), so the
   minimum is the best estimate of the code's intrinsic cost, and the
   allocation minimum discards first-run lazy initialization. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let result_to_json r =
  Printf.sprintf
    {|{"op": "%s", "ns_per_op": %.3f, "allocs_per_op": %.6f, "ops": %d, "runs": %d}|}
    (json_escape r.label) r.ns_per_op r.allocs_per_op r.ops r.runs

let pp_result ppf r =
  Format.fprintf ppf "%-28s %12.1f ns/op %12.3f words/op" r.label r.ns_per_op
    r.allocs_per_op

(* ------------------------------------------------------------------ *)
(* The bench ledger (BENCH_core.json): one JSON object, one member per
   writer.  A writer replaces its own member and copies every other
   member's value text through unchanged, so no run can drop or reformat
   another run's numbers. *)

let json_string s = "\"" ^ json_escape s ^ "\""

(* One member per line at [indent]; the closing brace two columns left. *)
let render_object ~indent members =
  "{\n"
  ^ String.concat ",\n"
      (List.map (fun (k, v) -> indent ^ json_string k ^ ": " ^ v) members)
  ^ "\n"
  ^ String.sub indent 2 (String.length indent - 2)
  ^ "}"

let section ~git_rev ~host_domains ~argv fields =
  render_object ~indent:"    "
    (("git_rev", json_string git_rev)
    :: ("host_domains", string_of_int host_domains)
    :: ("argv", "[" ^ String.concat ", " (List.map json_string argv) ^ "]")
    :: fields)

exception Malformed of int * string

(* The members of the JSON object [text] as (name as written, value
   text) pairs: just enough JSON to find where each value ends. *)
let members text =
  let n = String.length text in
  let fail i what = raise (Malformed (i, what)) in
  let rec ws i =
    if i < n && String.contains " \t\r\n" text.[i] then ws (i + 1) else i
  in
  let expect c i =
    let i = ws i in
    if i < n && text.[i] = c then i + 1 else fail i (Printf.sprintf "expected '%c'" c)
  in
  let rec string_end i =
    if i >= n then fail i "unterminated string"
    else if text.[i] = '"' then i + 1
    else string_end (i + if text.[i] = '\\' then 2 else 1)
  in
  (* Comma-separated [item]s up to [close]; [i] is just past the opener. *)
  let rec seq close item i =
    let j = ws i in
    if j < n && text.[j] = close then j + 1 else items close item j
  and items close item i =
    let i = ws (item i) in
    if i < n && text.[i] = ',' then items close item (i + 1) else expect close i
  and value i =
    let i = ws i in
    match if i < n then text.[i] else ' ' with
    | '"' -> string_end (i + 1)
    | '{' -> seq '}' (fun i -> value (expect ':' (string_end (expect '"' i)))) (i + 1)
    | '[' -> seq ']' value (i + 1)
    | _ ->
      let j = ref i in
      while !j < n && not (String.contains " \t\r\n,]}:" text.[!j]) do
        incr j
      done;
      let tok = String.sub text i (!j - i) in
      if List.mem tok [ "true"; "false"; "null" ] || Option.is_some (Float.of_string_opt tok)
      then !j
      else fail i "expected a value"
  in
  let acc = ref [] in
  let member i =
    let k0 = expect '"' i in
    let k1 = string_end k0 in
    let v0 = ws (expect ':' k1) in
    let v1 = value v0 in
    acc :=
      (String.sub text k0 (k1 - k0 - 1), String.sub text v0 (v1 - v0)) :: !acc;
    v1
  in
  let last = ws (seq '}' member (expect '{' 0)) in
  if last < n then fail last "text after the ledger object";
  List.rev !acc

let parse text =
  match members text with
  | ms -> Ok ms
  | exception Malformed (i, what) ->
    (* An escape at the very end reports one past the last byte. *)
    let before = String.sub text 0 (min i (String.length text)) in
    let line_start =
      match String.rindex_opt before '\n' with Some k -> k + 1 | None -> 0
    in
    let line = List.length (String.split_on_char '\n' before) in
    Error
      (Printf.sprintf "line %d, column %d: %s" line
         (String.length before - line_start + 1)
         what)

let merge_section ledger ~name section =
  let ( let* ) = Result.bind in
  let* ms = match ledger with None -> Ok [] | Some text -> parse text in
  let ms =
    if List.exists (fun (k, _) -> String.equal k name) ms then
      List.map
        (fun (k, v) -> (k, if String.equal k name then section else v))
        ms
    else ms @ [ (name, section) ]
  in
  let out = render_object ~indent:"  " ms ^ "\n" in
  (* A malformed [section] must not reach the file either. *)
  let* _ = parse out in
  Ok out

let git_rev ~read =
  let is_rev s =
    String.length s = 40
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  in
  (* A ref with no loose file may be a "<rev> <ref>" line of packed-refs. *)
  let packed ref_name =
    Option.bind (read "packed-refs") (fun text ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' (String.trim line) with
            | [ rev; r ] when String.equal r ref_name -> Some rev
            | _ -> None)
          (String.split_on_char '\n' text))
  in
  let rec resolve depth ref_name =
    let target =
      match read ref_name with None -> packed ref_name | found -> found
    in
    match Option.map String.trim target with
    | Some t when is_rev t -> Some t
    | Some t when depth < 5 && String.starts_with ~prefix:"ref: " t ->
      resolve (depth + 1) (String.sub t 5 (String.length t - 5))
    | _ -> None
  in
  resolve 0 "HEAD"
