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

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  Scan.Json.escape_into b s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_to_json r =
  Printf.sprintf
    {|{"op": %s, "ns_per_op": %.3f, "allocs_per_op": %.6f, "ops": %d, "runs": %d}|}
    (json_string r.label) r.ns_per_op r.allocs_per_op r.ops r.runs

let pp_result ppf r =
  Format.fprintf ppf "%-28s %12.1f ns/op %12.3f words/op" r.label r.ns_per_op
    r.allocs_per_op

(* ------------------------------------------------------------------ *)
(* The bench ledger (BENCH_core.json): one JSON object, one member per
   writer.  A writer replaces its own member and copies every other
   member's value text through unchanged, so no run can drop or reformat
   another run's numbers. *)

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

(* Line and column of byte [i] of [text]; an error past the end (an
   escape at the very end) reports one past the last byte. *)
let column_of text i =
  let before = String.sub text 0 (min i (String.length text)) in
  let line = List.length (String.split_on_char '\n' before) in
  let line_start = match String.rindex_opt before '\n' with Some k -> k + 1 | None -> 0 in
  Scan.Column (line, String.length before - line_start + 1)

(* The members of the JSON object [text] as (name as written, value
   text) pairs: just enough JSON to find where each value ends. *)
let members text =
  let lx = Scan.Json.lexer ~ws:true ~where:(column_of text) text in
  let is_literal_byte c = not (String.contains " \t\r\n,]}:" c) in
  (* Skip one value; its start. *)
  let rec value () =
    let next = Scan.Json.peek lx in
    let start = Scan.Json.pos lx in
    (match next with
    | Some '"' -> ignore (Scan.Json.string lx ~raw:true)
    | Some '{' ->
      Scan.Json.expect lx '{';
      Scan.Json.sequence lx ~close:'}' (fun () -> ignore (member ()))
    | Some '[' ->
      Scan.Json.expect lx '[';
      Scan.Json.sequence lx ~close:']' (fun () -> ignore (value ()))
    | _ -> (
      match Scan.Json.span lx is_literal_byte with
      | "true" | "false" | "null" -> ()
      | tok ->
        if Option.is_none (Float.of_string_opt tok) then
          Scan.fail (Scan.Json.at lx start) "expected a value"));
    start
  (* One [name: value]: the name as written and the value's start. *)
  and member () =
    let key = Scan.Json.string lx ~raw:true in
    Scan.Json.expect lx ':';
    (key, value ())
  in
  let acc = ref [] in
  Scan.Json.expect lx '{';
  Scan.Json.sequence lx ~close:'}' (fun () ->
      let key, start = member () in
      acc := (key, String.sub text start (Scan.Json.pos lx - start)) :: !acc);
  if Scan.Json.peek lx <> None then
    Scan.fail (Scan.Json.at lx (Scan.Json.pos lx)) "text after the ledger object";
  List.rev !acc

let parse text =
  Result.map_error Scan.error_to_string (Scan.protect (fun () -> members text))

let merge_section ledger ~name section =
  let open Scan in
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
