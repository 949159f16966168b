type record = { time_s : float; user : int; content : int }

type t = { times : float array; users : int array; contents : int array }

(* [what] names the entry point in the error. *)
let columns ~what ~times ~users ~contents =
  let n = Array.length times in
  if Array.length users <> n || Array.length contents <> n then
    invalid_arg (what ^ ": columns differ in length");
  for i = 1 to n - 1 do
    if times.(i) < times.(i - 1) then
      invalid_arg (what ^ ": timestamps must be non-decreasing")
  done;
  { times; users; contents }

let of_columns = columns ~what:"Trace.of_columns"

let create records =
  columns ~what:"Trace.create"
    ~times:(Array.map (fun r -> r.time_s) records)
    ~users:(Array.map (fun r -> r.user) records)
    ~contents:(Array.map (fun r -> r.content) records)

let length t = Array.length t.times

let get t i = { time_s = t.times.(i); user = t.users.(i); content = t.contents.(i) }

let iter t ~f =
  for i = 0 to length t - 1 do
    f (get t i)
  done

let duration_s t =
  let n = length t in
  if n < 2 then 0. else t.times.(n - 1) -. t.times.(0)

let distinct ids =
  let seen = Hashtbl.create 1024 in
  Array.iter (fun id -> Hashtbl.replace seen id ()) ids;
  Hashtbl.length seen

let users t = distinct t.users

let distinct_contents t = distinct t.contents

let name_of content =
  Ndn.Name.of_components [ "trace"; "c" ^ string_of_int content ]

let sub t ~pos ~len =
  {
    times = Array.sub t.times pos len;
    users = Array.sub t.users pos len;
    contents = Array.sub t.contents pos len;
  }

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to length t - 1 do
        Printf.fprintf oc "%.6f %d %d\n" t.times.(i) t.users.(i) t.contents.(i)
      done)

(* Each record fills the next slot of three columns sized for one
   record per line; comments and blank lines leave slots that the
   final [Array.sub] drops. *)
let parse text =
  let open Sim.Scan in
  let cap = 1 + String.fold_left (fun k c -> if c = '\n' then k + 1 else k) 0 text in
  let times = Array.make cap 0. and users = Array.make cap 0 in
  let contents = Array.make cap 0 in
  let* n =
    fold_lines text ~init:0 ~f:(fun n ~line:_ tokens ->
        match tokens with
        | [ ts; u; c ] ->
          let* time_s = float_field "time" ts in
          let* user = int_field "user" u in
          let* content = int_field "content" c in
          if not (Float.is_finite time_s) then
            Error (Printf.sprintf "time: expected a finite number, got %S" ts)
          else if n > 0 && time_s < times.(n - 1) then
            Error
              (Printf.sprintf "time %s is before the previous record's %s"
                 (float_str time_s) (float_str times.(n - 1)))
          else begin
            times.(n) <- time_s;
            users.(n) <- user;
            contents.(n) <- content;
            Ok (n + 1)
          end
        | _ ->
          Error
            (Printf.sprintf "expected 'TIME USER CONTENT', got %d fields"
               (List.length tokens)))
  in
  let column a = if n = cap then a else Array.sub a 0 n in
  Ok (of_columns ~times:(column times) ~users:(column users) ~contents:(column contents))

let load ~path = Result.bind (Sim.Scan.read_file path) parse

let pp_summary ppf t =
  Format.fprintf ppf
    "%d requests, %d users, %d distinct contents, %.1f h span"
    (length t) (users t) (distinct_contents t)
    (duration_s t /. 3600.)
