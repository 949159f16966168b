type record = { time_s : float; user : int; content : int }

type t = record array

let create records =
  let ok = ref true in
  for i = 1 to Array.length records - 1 do
    if records.(i).time_s < records.(i - 1).time_s then ok := false
  done;
  if not !ok then invalid_arg "Trace.create: timestamps must be non-decreasing";
  records

let length t = Array.length t

let get t i = t.(i)

let iter t ~f = Array.iter f t

let duration_s t =
  if Array.length t < 2 then 0.
  else t.(Array.length t - 1).time_s -. t.(0).time_s

let distinct_of field t =
  let seen = Hashtbl.create 1024 in
  Array.iter (fun r -> Hashtbl.replace seen (field r) ()) t;
  Hashtbl.length seen

let users t = distinct_of (fun r -> r.user) t

let distinct_contents t = distinct_of (fun r -> r.content) t

let name_of content =
  Ndn.Name.of_components [ "trace"; "c" ^ string_of_int content ]

let sub t ~pos ~len = Array.sub t pos len

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun r -> Printf.fprintf oc "%.6f %d %d\n" r.time_s r.user r.content)
        t)

let parse text =
  let open Sim.Scan in
  let* _, rev =
    fold_lines text ~init:(neg_infinity, []) ~f:(fun (prev, acc) ~line:_ tokens ->
        match tokens with
        | [ ts; u; c ] ->
          let* time_s = float_field "time" ts in
          let* user = int_field "user" u in
          let* content = int_field "content" c in
          if not (Float.is_finite time_s) then
            Error (Printf.sprintf "time: expected a finite number, got %S" ts)
          else if time_s < prev then
            Error
              (Printf.sprintf "time %s is before the previous record's %s"
                 (float_str time_s) (float_str prev))
          else Ok (time_s, { time_s; user; content } :: acc)
        | _ ->
          Error
            (Printf.sprintf "expected 'TIME USER CONTENT', got %d fields"
               (List.length tokens)))
  in
  Ok (create (Array.of_list (List.rev rev)))

let load ~path = Result.bind (Sim.Scan.read_file path) parse

let pp_summary ppf t =
  Format.fprintf ppf
    "%d requests, %d users, %d distinct contents, %.1f h span"
    (length t) (users t) (distinct_contents t)
    (duration_s t /. 3600.)
