(* Sim.Scan, and the totality of every parser built on it: each parser
   of outside input is fed its own fixtures cut at every length and
   with single bytes replaced, and must answer Ok or a positioned Error,
   never raise. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Resolve fixtures relative to the test binary so the tests pass both
   under `dune runtest` and when the executable is run by hand. *)
let fixture name =
  let candidates =
    [
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat "../examples/topologies" name);
      Filename.concat "../examples/topologies" name;
      Filename.concat "examples/topologies" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> read_file path
  | None -> Alcotest.failf "fixture %s not found" name

(* --- the scanner --- *)

let test_error_rendering () =
  let render position = Sim.Scan.error_to_string { position; reason = "r" } in
  Alcotest.(check string) "byte" "byte 7: r" (render (Sim.Scan.Byte 7));
  Alcotest.(check string) "line" "line 3: r" (render (Sim.Scan.Line 3));
  Alcotest.(check string) "column" "line 3, column 9: r" (render (Sim.Scan.Column (3, 9)))

let test_fold_lines () =
  let seen = ref [] in
  let result =
    Sim.Scan.fold_lines "# c\n\n  a  b\t\r\n#x y\nc\n" ~init:0 ~f:(fun n ~line toks ->
        seen := (line, toks) :: !seen;
        Ok (n + 1))
  in
  Alcotest.(check (result int string)) "two directives" (Ok 2) result;
  Alcotest.(check (list (pair int (list string))))
    "blank lines and comments skipped, lines counted"
    [ (3, [ "a"; "b" ]); (5, [ "c" ]) ]
    (List.rev !seen);
  Alcotest.(check (result int string)) "error carries its line" (Error "line 2: nope")
    (Sim.Scan.fold_lines "ok\nbad\n" ~init:0 ~f:(fun n ~line:_ toks ->
         if toks = [ "bad" ] then Error "nope" else Ok (n + 1)))

(* A file that cannot be opened or cannot be read is named once, so a
   caller can report the error as it stands. *)
let test_read_file_names_path_once () =
  let dir = Filename.get_temp_dir_name () in
  let missing = Filename.concat dir "no-such-file.scan" in
  Alcotest.(check (result string string)) "failed open"
    (Error (missing ^ ": No such file or directory"))
    (Sim.Scan.read_file missing);
  Alcotest.(check (result string string)) "failed read"
    (Error (dir ^ ": Is a directory"))
    (Sim.Scan.read_file dir)

let test_json_string_modes () =
  let lex text = Sim.Scan.Json.lexer ~ws:false ~where:(fun i -> Sim.Scan.Byte i) text in
  Alcotest.(check string) "raw keeps the escapes" {|a\"b\q|}
    (Sim.Scan.Json.string (lex {|"a\"b\q"|}) ~raw:true);
  Alcotest.(check string) "decoded" "a\"b\n\x01"
    (Sim.Scan.Json.string (lex {|"a\"b\n\u0001"|}) ~raw:false);
  match Sim.Scan.protect (fun () -> Sim.Scan.Json.string (lex {|"a\q"|}) ~raw:false) with
  | Ok s -> Alcotest.failf "decoded an unsupported escape to %S" s
  | Error e ->
    Alcotest.(check string) "unsupported escape" "byte 3: unsupported escape '\\q'"
      (Sim.Scan.error_to_string e)

(* --- totality --- *)

(* Bytes that are structural in at least one of the formats: NUL (not
   allowed in a name component), separators, comment and JSON
   punctuation, digits and letters, and varint continuation bytes. *)
let substitutes = "\000\n \t#=\"\\{},:/-.9xe\x7f\x80\xff"

(* Every prefix of [s], and [s] with each byte replaced by each of
   [substitutes]. *)
let mutants s =
  let n = String.length s in
  let cuts = List.init n (fun k -> String.sub s 0 k) in
  let subs =
    List.concat
      (List.init n (fun i ->
           List.filter_map
             (fun c ->
               if c = s.[i] then None
               else begin
                 let b = Bytes.of_string s in
                 Bytes.set b i c;
                 Some (Bytes.to_string b)
               end)
             (List.of_seq (String.to_seq substitutes))))
  in
  cuts @ subs

let total ~what parse s =
  List.iter
    (fun m ->
      match parse m with
      | () -> ()
      | exception e ->
        Alcotest.failf "%s raised %s on %S" what (Printexc.to_string e) m)
    (mutants s)

let short_trace () =
  let tracer = Sim.Trace.create () in
  let kind k = Option.get (Sim.Trace.kind_of_string k) in
  List.iter (Sim.Trace.emit tracer)
    [
      { Sim.Trace.time = 0.5; node = "R"; kind = kind "cs.hit"; name = "/p/a"; attrs = [] };
      {
        time = 1.25;
        node = "U";
        kind = kind "cs.miss";
        name = "/p/\"q\"";
        attrs = [ ("k", "v\t1") ];
      };
      { time = 1.; node = "R"; kind = kind "cs.insert"; name = "/p/a"; attrs = [ ("n", "2") ] };
    ];
  tracer

let ledger =
  let section fields =
    Sim.Bench.section ~git_rev:(String.make 40 'a') ~host_domains:2 ~argv:[ "x" ] fields
  in
  match
    Sim.Bench.merge_section None ~name:"core"
      (section [ ("rows", {|[{"op": "a", "ns": 1.5e2, "ok": true, "n": null}]|}) ])
  with
  | Ok text -> text
  | Error msg -> failwith msg

let test_totality () =
  let ignore_result r = ignore (r : (_, _) result) in
  List.iter
    (fun file ->
      total ~what:file
        (fun s -> ignore_result (Ndn.Topology_spec.parse s))
        (fixture file))
    [ "figure1.topo"; "dumbbell.topo" ];
  total ~what:"chaos.faults" (fun s -> ignore_result (Sim.Fault.parse s)) (fixture "chaos.faults");
  let section = Sim.Bench.section ~git_rev:"r" ~host_domains:1 ~argv:[] [] in
  total ~what:"merge_section"
    (fun s -> ignore_result (Sim.Bench.merge_section (Some s) ~name:"scale" section))
    ledger;
  let count src fold = ignore_result (fold src ~init:0 ~f:(fun n _ -> n + 1)) in
  let trace = short_trace () in
  total ~what:"fold_jsonl"
    (fun s -> count (Sim.Trace_reader.of_string s) Sim.Trace_reader.fold_jsonl)
    (Sim.Trace.render Sim.Trace.Jsonl trace);
  total ~what:"fold_binary"
    (fun s -> count (Sim.Trace_reader.of_string s) Sim.Trace_reader.fold_binary)
    (Sim.Trace.render Sim.Trace.Binary trace);
  let name = Ndn.Name.of_string "/prod/a" in
  List.iter
    (fun p ->
      total ~what:"decode_packet"
        (fun s -> ignore_result (Ndn.Wire.decode_packet s))
        (Ndn.Wire.encode_packet p))
    [
      Ndn.Packet.Interest (Ndn.Interest.create ~scope:2 ~nonce:7L name);
      Ndn.Packet.Data
        (Ndn.Data.create ~content_id:"c" ~freshness_ms:5. ~producer:"P" ~key:"k"
           ~payload:"xy" name);
    ];
  total ~what:"Squid_log.of_lines"
    (fun s -> ignore (Workload.Squid_log.of_lines (String.split_on_char '\n' s)))
    "1189036512.145  124 client-a TCP_MISS/200 4122 GET http://e.com/1 - DIRECT/1.2.3.4 \
     text/html\n\
     1189036513.001   17 client-b TCP_HIT/200 412 GET http://e.com/2 - NONE/- image/png\n";
  total ~what:"Trace.parse"
    (fun s -> ignore_result (Workload.Trace.parse s))
    "0.500000 3 7\n1.250000 1 9\n# comment\n2.000000 3 7\n"

let () =
  Alcotest.run "scan"
    [
      ( "scan",
        [
          Alcotest.test_case "error rendering" `Quick test_error_rendering;
          Alcotest.test_case "fold_lines" `Quick test_fold_lines;
          Alcotest.test_case "read_file names the path once" `Quick
            test_read_file_names_path_once;
          Alcotest.test_case "json string modes" `Quick test_json_string_modes;
        ] );
      ("totality", [ Alcotest.test_case "no parser raises" `Quick test_totality ]);
    ]
