type parse_stats = { parsed : int; skipped : int }

(* Squid pads the elapsed field with runs of spaces. *)
let parse_line line =
  match Sim.Scan.tokens line with
  | timestamp :: _elapsed :: client :: action :: _size :: _method :: url :: _rest
    -> (
    match float_of_string_opt timestamp with
    | Some ts when ts >= 0. ->
      (* Keep only request records; Squid writes other line kinds too. *)
      if String.length action > 0 && String.length url > 0 then
        Some (ts, client, url)
      else None
    | Some _ | None -> None)
  | _ -> None

let of_lines lines =
  let users : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let contents : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let intern tbl key =
    match Hashtbl.find_opt tbl key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length tbl in
      Hashtbl.add tbl key id;
      id
  in
  let parsed = ref 0 and skipped = ref 0 in
  let records =
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else
          match parse_line line with
          | Some (ts, client, url) ->
            incr parsed;
            Some
              {
                Trace.time_s = ts;
                user = intern users client;
                content = intern contents url;
              }
          | None ->
            incr skipped;
            None)
      lines
  in
  let arr = Array.of_list records in
  Array.sort (fun a b -> compare a.Trace.time_s b.Trace.time_s) arr;
  let t0 = if Array.length arr > 0 then arr.(0).Trace.time_s else 0. in
  let arr =
    Array.map (fun r -> { r with Trace.time_s = r.Trace.time_s -. t0 }) arr
  in
  (Trace.create arr, { parsed = !parsed; skipped = !skipped })
