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

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let records = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match String.split_on_char ' ' (String.trim line) with
             | [ ts; u; c ] -> (
               match
                 (float_of_string_opt ts, int_of_string_opt u, int_of_string_opt c)
               with
               | Some time_s, Some user, Some content ->
                 records := { time_s; user; content } :: !records
               | _ -> failwith ("Trace.load: malformed line: " ^ line))
             | _ -> failwith ("Trace.load: malformed line: " ^ line)
         done
       with End_of_file -> ());
      create (Array.of_list (List.rev !records)))

let pp_summary ppf t =
  Format.fprintf ppf
    "%d requests, %d users, %d distinct contents, %.1f h span"
    (length t) (users t) (distinct_contents t)
    (duration_s t /. 3600.)
