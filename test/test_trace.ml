(* Tests for the Sim.Trace observability subsystem: schema round-trips,
   exporter formatting and escaping, buffering/sink semantics, the
   end-to-end emission coverage of an instrumented probe run, topology
   round-trips through the .topo printer, and the determinism
   guarantees (--jobs invariance, golden trace). *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then true
  else
    let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
    at 0

let all_kinds =
  [
    Sim.Trace.Engine_step;
    Cs_hit;
    Cs_miss;
    Cs_insert;
    Cs_evict;
    Cs_expire;
    Interest_received;
    Interest_forwarded;
    Interest_collapsed;
    Data_received;
    Data_sent;
    Pit_timeout;
    Link_transmit;
    Link_drop;
    Rc_draw;
    Rc_fake_miss;
    Rc_hit;
    Cs_flush;
    Fault_link;
    Fault_crash;
    Fault_restart;
    Fault_producer;
  ]

let ev ?(time = 1.25) ?(node = "R") ?(kind = Sim.Trace.Cs_hit)
    ?(name = "/prod/a") ?(attrs = []) () =
  { Sim.Trace.time; node; kind; name; attrs }

(* --- schema --- *)

let test_kind_round_trip () =
  List.iter
    (fun k ->
      let s = Sim.Trace.kind_to_string k in
      match Sim.Trace.kind_of_string s with
      | Some k' when k' = k -> ()
      | _ -> Alcotest.failf "kind %s does not round-trip" s)
    all_kinds

let test_kind_names_unique () =
  let names = List.map Sim.Trace.kind_to_string all_kinds in
  Alcotest.(check int) "no duplicate wire names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_kind_of_string_unknown () =
  Alcotest.(check bool) "unknown kind rejected" true
    (Sim.Trace.kind_of_string "cs.frobnicate" = None)

let test_format_of_string () =
  Alcotest.(check bool) "jsonl" true (Sim.Trace.format_of_string "jsonl" = Some Sim.Trace.Jsonl);
  Alcotest.(check bool) "json alias" true (Sim.Trace.format_of_string "json" = Some Sim.Trace.Jsonl);
  Alcotest.(check bool) "csv is not a format" true (Sim.Trace.format_of_string "csv" = None);
  Alcotest.(check bool) "garbage" true (Sim.Trace.format_of_string "xml" = None)

(* --- exporters --- *)

let jsonl e =
  let b = Buffer.create 96 in
  Sim.Trace.add_jsonl b e;
  Buffer.contents b

let test_jsonl_basic () =
  Alcotest.(check string) "canonical object"
    {|{"time":1.250000,"node":"R","kind":"cs.hit","name":"/prod/a","attrs":{"policy":"lru","count":"3"}}|}
    (jsonl
       (ev ~attrs:[ ("policy", "lru"); ("count", "3") ] ()))

let test_jsonl_escaping () =
  let line =
    jsonl
      (ev ~node:"a\"b\\c" ~name:"/x\n/y" ~attrs:[ ("k\t", "\x01") ] ())
  in
  Alcotest.(check bool) "quote and backslash escaped" true
    (contains line {|"node":"a\"b\\c"|});
  Alcotest.(check bool) "newline escaped" true
    (contains line {|"name":"/x\n/y"|});
  Alcotest.(check bool) "control char as \\u" true
    (contains line {|\u0001|});
  Alcotest.(check bool) "single line" true
    (not (String.contains line '\n'))

(* --- tracer semantics --- *)

let test_disabled_is_inert () =
  let d = Sim.Trace.disabled in
  Alcotest.(check bool) "not enabled" false (Sim.Trace.enabled d);
  Sim.Trace.emit d (ev ());
  Alcotest.(check int) "emit buffers nothing" 0 (Sim.Trace.length d);
  Alcotest.(check int) "no events" 0 (Array.length (Sim.Trace.events d))

let test_buffering_order () =
  let t = Sim.Trace.create () in
  for i = 0 to 99 do
    Sim.Trace.emit t (ev ~time:(float_of_int i) ())
  done;
  Alcotest.(check int) "length" 100 (Sim.Trace.length t);
  let times = Array.map (fun e -> e.Sim.Trace.time) (Sim.Trace.events t) in
  Alcotest.(check bool) "emission order kept" true
    (times = Array.init 100 float_of_int);
  Alcotest.(check int) "fresh tracer is empty" 0 (Sim.Trace.length (Sim.Trace.create ()))

let test_sink_streams () =
  let seen = ref 0 in
  let t = Sim.Trace.with_sink (fun _ -> incr seen) in
  Sim.Trace.emit t (ev ());
  Sim.Trace.emit t (ev ());
  Alcotest.(check int) "sink called per emit" 2 !seen;
  Alcotest.(check int) "nothing buffered" 0 (Sim.Trace.length t)

let test_merge_preserves_order () =
  let a = Sim.Trace.create () and b = Sim.Trace.create () in
  Sim.Trace.emit a (ev ~time:1. ~node:"a" ());
  Sim.Trace.emit a (ev ~time:2. ~node:"a" ());
  Sim.Trace.emit b (ev ~time:0.5 ~node:"b" ());
  let into = Sim.Trace.create () in
  Sim.Trace.merge_into ~into a;
  Sim.Trace.merge_into ~into b;
  let nodes =
    Array.to_list
      (Array.map (fun e -> e.Sim.Trace.node) (Sim.Trace.events into))
  in
  (* Trial order, not time order: merge is a concatenation. *)
  Alcotest.(check (list string)) "concatenated in merge order"
    [ "a"; "a"; "b" ] nodes;
  Alcotest.check_raises "merge into disabled raises"
    (Invalid_argument "Trace.merge_into: target tracer is disabled") (fun () ->
      Sim.Trace.merge_into ~into:Sim.Trace.disabled a)

(* --- end-to-end emission from an instrumented probe run --- *)

(* One small LAN probe: U warms /prod/a, Adv probes it.  Mirrors
   `ndnsim probe --warm /prod/a --target /prod/a --trace ...`. *)
let probe_trace ?(seed = 42) () =
  let tracer = Sim.Trace.create () in
  let setup = Ndn.Network.lan ~seed ~tracer () in
  ignore
    (Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.user
       (Ndn.Name.of_string "/prod/a"));
  ignore
    (Ndn.Network.fetch_rtt setup.Ndn.Network.net
       ~from:setup.Ndn.Network.adversary ~timeout_ms:1000.
       (Ndn.Name.of_string "/prod/a"));
  tracer

let test_probe_emits_all_layers () =
  let tracer = probe_trace () in
  let kinds =
    Array.fold_left
      (fun acc e -> e.Sim.Trace.kind :: acc)
      [] (Sim.Trace.events tracer)
  in
  let has k = List.mem k kinds in
  Alcotest.(check bool) "engine.step" true (has Sim.Trace.Engine_step);
  Alcotest.(check bool) "interest.recv" true (has Sim.Trace.Interest_received);
  Alcotest.(check bool) "interest.fwd" true (has Sim.Trace.Interest_forwarded);
  Alcotest.(check bool) "data.recv" true (has Sim.Trace.Data_received);
  Alcotest.(check bool) "data.sent" true (has Sim.Trace.Data_sent);
  Alcotest.(check bool) "link.tx" true (has Sim.Trace.Link_transmit);
  Alcotest.(check bool) "cs.insert" true (has Sim.Trace.Cs_insert);
  Alcotest.(check bool) "cs.miss (first fetch)" true (has Sim.Trace.Cs_miss);
  Alcotest.(check bool) "cs.hit (the probe)" true (has Sim.Trace.Cs_hit)

let test_probe_times_monotone () =
  let tracer = probe_trace () in
  let last = ref neg_infinity in
  Sim.Trace.iter tracer (fun e ->
      if e.Sim.Trace.time < !last then
        Alcotest.failf "time went backwards: %f after %f" e.Sim.Trace.time !last;
      last := e.Sim.Trace.time);
  Alcotest.(check bool) "saw events" true (Sim.Trace.length tracer > 0)

let test_tracing_does_not_perturb_results () =
  (* Enabling a tracer must not change the simulation: same seed, same
     RTTs, with and without tracing. *)
  let rtts tracer =
    let setup = Ndn.Network.lan ~seed:7 ~tracer () in
    let fetch from name =
      Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from
        (Ndn.Name.of_string name)
    in
    [
      fetch setup.Ndn.Network.user "/prod/a";
      fetch setup.Ndn.Network.adversary "/prod/a";
      fetch setup.Ndn.Network.adversary "/prod/b";
    ]
  in
  Alcotest.(check bool) "identical RTT streams" true
    (rtts Sim.Trace.disabled = rtts (Sim.Trace.create ()))

(* --- determinism: --jobs invariance and the golden trace --- *)

let campaign ~jobs =
  Attack.Timing_experiment.run
    ~make_setup:(fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ())
    ~contents:8 ~runs:4 ~seed:11 ~jobs ~trace:true ()

let test_jobs_invariant_jsonl () =
  let r1 = campaign ~jobs:1 and r4 = campaign ~jobs:4 in
  let t1 = Sim.Trace.render Sim.Trace.Jsonl r1.Attack.Timing_experiment.trace in
  let t4 = Sim.Trace.render Sim.Trace.Jsonl r4.Attack.Timing_experiment.trace in
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 1000);
  Alcotest.(check string) "byte-identical JSONL for --jobs 1 vs --jobs 4" t1 t4

let test_jobs_invariant_binary () =
  let r1 = campaign ~jobs:1 and r3 = campaign ~jobs:3 in
  Alcotest.(check string) "byte-identical binary for --jobs 1 vs --jobs 3"
    (Sim.Trace.render Sim.Trace.Binary r1.Attack.Timing_experiment.trace)
    (Sim.Trace.render Sim.Trace.Binary r3.Attack.Timing_experiment.trace)

(* Golden trace for the canonical small probe run (LAN, seed 42, warm
   /prod/a then probe it).  The pinned digest is the determinism
   contract: any change to the schema, the formatting, or the
   simulation's event order must update it consciously. *)
let golden_lines = 50
let golden_sha256 =
  "9695af38a255dbbc32a0d5d22d6c666a8a59ee3557c56d3308da6a352db95ed3"
let golden_first =
  {|{"time":0.000000,"node":"U","kind":"interest.recv","name":"/prod/a","attrs":{"face":"0"}}|}
let golden_last =
  {|{"time":8005.998576,"node":"engine","kind":"engine.step","name":"","attrs":{"depth":"0","processed":"19"}}|}

(* Golden trace for the canonical small attack campaign (LAN, seed 11,
   8 contents x 4 runs — the same campaign the jobs-invariance tests
   run), at the default K = 1 with its [engine.step] records.  Re-pinned
   when the one-shard [Sim.Shard] layout (per-link-direction RNG
   streams, node-keyed events) became the only execution path; it is
   the byte-identity contract that later rewrites are pure
   optimizations: same events, same order, same bytes. *)
let golden_attack_lines = 2688
let golden_attack_sha256 =
  "e4c37e0b5dcbf11d5e8096bbaeb04110ec288a8064d69616b7d3a8dc5aaeeecc"

let test_golden_attack_trace () =
  let rendered =
    Sim.Trace.render Sim.Trace.Jsonl (campaign ~jobs:1).Attack.Timing_experiment.trace
  in
  let lines =
    String.split_on_char '\n' rendered |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "line count" golden_attack_lines (List.length lines);
  Alcotest.(check string) "sha256 of the full attack trace"
    golden_attack_sha256
    (Ndn_crypto.Sha256.hex_digest rendered)

(* The same canonical campaign under --shards K.  Every network runs on
   a [Sim.Shard] partition (K = 1 by default), and the bytes must not
   depend on K except for [engine.step] records, which only the K = 1
   engine emits: test_shard.ml sweeps K; here K = 4 is pinned against
   the golden above with its [engine.step] lines removed. *)
let campaign_sharded ~shards =
  Attack.Timing_experiment.run
    ~make_setup:(fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ~shards ())
    ~contents:8 ~runs:4 ~seed:11 ~jobs:1 ~shards ~trace:true ()

let without_engine_steps tr =
  let t = Sim.Trace.create () in
  Sim.Trace.iter tr (fun e ->
      if e.Sim.Trace.kind <> Sim.Trace.Engine_step then Sim.Trace.emit t e);
  t

let test_golden_sharded_attack_trace () =
  let golden = (campaign ~jobs:1).Attack.Timing_experiment.trace in
  let render = Sim.Trace.render Sim.Trace.Jsonl in
  Alcotest.(check string) "--shards 1 is the default" (render golden)
    (render (campaign_sharded ~shards:1).Attack.Timing_experiment.trace);
  Alcotest.(check string) "--shards 4 = golden without engine.step"
    (render (without_engine_steps golden))
    (render (campaign_sharded ~shards:4).Attack.Timing_experiment.trace)

(* A one-shard network traces one [engine.step] per executed event; a
   partitioned one traces none. *)
let test_engine_steps_count_events () =
  let steps ~shards =
    let tracer = Sim.Trace.create () in
    let setup = Ndn.Network.lan ~seed:42 ~tracer ~shards () in
    let net = setup.Ndn.Network.net in
    List.iter
      (fun from ->
        ignore (Ndn.Network.fetch_rtt net ~from (Ndn.Name.of_string "/prod/a")))
      [ setup.Ndn.Network.user; setup.Ndn.Network.adversary ];
    let n = ref 0 in
    Sim.Trace.iter tracer (fun e ->
        if e.Sim.Trace.kind = Sim.Trace.Engine_step then incr n);
    (!n, Ndn.Network.events_processed net)
  in
  let n1, e1 = steps ~shards:1 in
  Alcotest.(check bool) "events ran" true (e1 > 0);
  Alcotest.(check int) "K = 1: one engine.step per event" e1 n1;
  let n2, e2 = steps ~shards:2 in
  Alcotest.(check int) "K = 2: same event total" e1 e2;
  Alcotest.(check int) "K = 2: no engine.step" 0 n2

let test_golden_probe_trace () =
  let rendered = Sim.Trace.render Sim.Trace.Jsonl (probe_trace ()) in
  let lines =
    String.split_on_char '\n' rendered |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "line count" golden_lines (List.length lines);
  Alcotest.(check string) "first line" golden_first (List.hd lines);
  Alcotest.(check string) "last line" golden_last
    (List.nth lines (List.length lines - 1));
  Alcotest.(check string) "sha256 of the full trace" golden_sha256
    (Ndn_crypto.Sha256.hex_digest rendered)

(* --- .topo parser: round-trip and error messages --- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

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

let check_fixpoint file =
  match Ndn.Topology_spec.parse_spec (fixture file) with
  | Error e -> Alcotest.failf "%s does not parse: %s" file e
  | Ok spec -> (
    let printed = Ndn.Topology_spec.print spec in
    match Ndn.Topology_spec.parse_spec printed with
    | Error e -> Alcotest.failf "printed %s does not re-parse: %s" file e
    | Ok spec' ->
      Alcotest.(check bool)
        (file ^ ": print/parse round-trips the directives")
        true
        (Ndn.Topology_spec.directives spec
        = Ndn.Topology_spec.directives spec');
      Alcotest.(check string) (file ^ ": print is a fixpoint") printed
        (Ndn.Topology_spec.print spec'))

let test_topo_round_trip_figure1 () = check_fixpoint "figure1.topo"

let test_topo_round_trip_dumbbell () = check_fixpoint "dumbbell.topo"

let test_topo_fixtures_build () =
  List.iter
    (fun file ->
      match Ndn.Topology_spec.parse (fixture file) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s does not build: %s" file e)
    [ "figure1.topo"; "dumbbell.topo" ]

let check_error ~line ~needle text =
  match Ndn.Topology_spec.parse_spec text with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" text
  | Error msg ->
    let prefix = Printf.sprintf "line %d: " line in
    if
      not
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)
    then Alcotest.failf "error %S does not carry %S" msg prefix;
    if not (contains msg needle) then
      Alcotest.failf "error %S does not mention %S" msg needle

let test_topo_error_node () =
  check_error ~line:1 ~needle:"node R cs=10000 policy=lru" "node";
  check_error ~line:1 ~needle:"expected a node name before attributes"
    "node cs=5"

let test_topo_error_link () =
  check_error ~line:1 ~needle:"link U R latency=const:1" "link U";
  check_error ~line:1 ~needle:"expected two endpoint names before attributes"
    "link U latency=const:1"

let test_topo_error_route () =
  check_error ~line:1 ~needle:"route U /prod via R" "route U /prod R"

(* A NUL byte cannot sit in a name component: reported at parse time
   with the line, never raised from [Name.of_string] at build time. *)
let test_topo_error_nul_name () =
  check_error ~line:1 ~needle:"route: Name: NUL byte" "route U /pr\000d via R";
  check_error ~line:1 ~needle:"producer: Name: NUL byte" "producer R /pr\000d";
  check_error ~line:1 ~needle:"generate: Name: NUL byte"
    "generate tree name=is\000p arity=2 tiers=2"

let test_topo_error_unknown_attr () =
  check_error ~line:1 ~needle:"allowed:" "node R colour=red";
  check_error ~line:1 ~needle:"unknown attribute" "node R colour=red"

let test_topo_error_latency () =
  check_error ~line:1 ~needle:"unknown latency model"
    "link U R latency=warp:9"

let test_topo_error_unknown_directive () =
  check_error ~line:1
    ~needle:"expected node, link, route, producer, generate or fault"
    "frobnicate X"

let test_topo_error_loss_range () =
  check_error ~line:1 ~needle:"probability in [0, 1]"
    "link U R latency=const:1 loss=1.5";
  check_error ~line:1 ~needle:"probability in [0, 1]"
    "link U R latency=const:1 loss=-0.1";
  (* The boundaries themselves are legal. *)
  (match Ndn.Topology_spec.parse_spec "node U\nnode R\nlink U R loss=1\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "loss=1 should parse: %s" e);
  match Ndn.Topology_spec.parse_spec "node U\nnode R\nlink U R loss=0\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "loss=0 should parse: %s" e

let test_topo_error_latency_ranges () =
  check_error ~line:1 ~needle:"non-negative" "link U R latency=const:-2";
  check_error ~line:1 ~needle:"hi 1 below lo 3" "link U R latency=uniform:3:1";
  check_error ~line:1 ~needle:"non-negative" "link U R latency=uniform:-1:2";
  check_error ~line:1 ~needle:"non-negative"
    "link U R latency=normal:5:-1:0.5";
  check_error ~line:1 ~needle:"non-negative"
    "node R proc=normal:-5:1:0.5";
  check_error ~line:1 ~needle:"positive"
    "link U R latency=shifted_exp:0.3:0";
  check_error ~line:1 ~needle:"non-negative"
    "link U R latency=shifted_exp:-0.3:2";
  check_error ~line:1 ~needle:"non-negative" "producer P /prod delay=-1"

(* --- fault directives --- *)

let test_topo_fault_parse_and_print () =
  let text =
    "node U\nnode R\nnode P\nlink U R\nlink R P\n\
     fault 120 link_down U R dir=ab\n\
     fault 180 link_up U R dir=ab\n\
     fault 150 degrade R P loss=0.3 latency_factor=2 until=400\n\
     fault 300 crash R preserve_cs=false\n\
     fault 450 restart R\n\
     fault 500 producer_down P until=800\n\
     fault 900 producer_slow P factor=4 until=1200\n"
  in
  match Ndn.Topology_spec.parse_spec text with
  | Error e -> Alcotest.failf "fault spec does not parse: %s" e
  | Ok spec -> (
    let n_faults =
      List.length
        (List.filter
           (function Ndn.Topology_spec.Fault_decl _ -> true | _ -> false)
           (Ndn.Topology_spec.directives spec))
    in
    Alcotest.(check int) "all fault lines parsed" 7 n_faults;
    let printed = Ndn.Topology_spec.print spec in
    match Ndn.Topology_spec.parse_spec printed with
    | Error e -> Alcotest.failf "printed fault spec does not re-parse: %s" e
    | Ok spec' ->
      Alcotest.(check bool) "fault print/parse fixpoint" true
        (Ndn.Topology_spec.directives spec
        = Ndn.Topology_spec.directives spec'))

let test_topo_fault_errors () =
  check_error ~line:1 ~needle:"loss" "fault 10 degrade U R loss=2 until=20";
  check_error ~line:2 ~needle:"" "node U\nfault -5 crash U";
  (* Build-time target validation carries the fault's line number. *)
  match Ndn.Topology_spec.parse "node U\nnode R\nfault 10 crash X\n" with
  | Ok _ -> Alcotest.fail "crash of undeclared node should not build"
  | Error msg ->
    Alcotest.(check bool) "line number" true
      (String.length msg > 8 && String.sub msg 0 8 = "line 3: ");
    Alcotest.(check bool) "names the node" true (contains msg "\"X\"")

let test_topo_fault_builds_and_fires () =
  let text =
    "node U caching=false\nnode R\nnode P\n\
     link U R latency=const:1\nlink R P latency=const:1\n\
     route U /prod via R\nroute R /prod via P\n\
     producer P /prod\n\
     fault 50 crash R\n"
  in
  match Ndn.Topology_spec.parse text with
  | Error e -> Alcotest.failf "does not build: %s" e
  | Ok t ->
    Alcotest.(check int) "schedule exposed" 1
      (List.length t.Ndn.Topology_spec.faults);
    let r = Ndn.Topology_spec.node t "R" in
    Ndn.Network.run t.Ndn.Topology_spec.network;
    Alcotest.(check bool) "crash fired during drain" false
      (Ndn.Node.is_alive r)

let test_topo_error_line_numbers () =
  (* The bad directive sits on line 4 (after a comment and a blank). *)
  check_error ~line:4 ~needle:"node"
    "# topology\n\nnode U\nnode\nnode R\n"

let test_topo_semantic_errors_carry_lines () =
  let check_build ~line ~needle text =
    match Ndn.Topology_spec.parse text with
    | Ok _ -> Alcotest.failf "expected a build error for %S" text
    | Error msg ->
      let prefix = Printf.sprintf "line %d: " line in
      if
        not
          (String.length msg >= String.length prefix
          && String.sub msg 0 (String.length prefix) = prefix)
      then Alcotest.failf "build error %S does not carry %S" msg prefix;
      if not (contains msg needle) then
        Alcotest.failf "build error %S does not mention %S" msg needle
  in
  check_build ~line:2 ~needle:"duplicate node" "node U\nnode U\n";
  check_build ~line:2 ~needle:"undeclared node" "node U\nlink U R\n";
  check_build ~line:3 ~needle:"no such link"
    "node U\nnode R\nroute U /prod via R\n"

(* --- binary wire format (DESIGN §16) --- *)

let tracer_of_events evs =
  let t = Sim.Trace.create () in
  List.iter (Sim.Trace.emit t) evs;
  t

let jsonl_of_events evs =
  let b = Buffer.create 256 in
  List.iter
    (fun e ->
      Sim.Trace.add_jsonl b e;
      Buffer.add_char b '\n')
    evs;
  Buffer.contents b

let decode_binary_exn s =
  let src = Sim.Trace_reader.of_string s in
  match
    Sim.Trace_reader.fold_binary src ~init:[] ~f:(fun acc e -> e :: acc)
  with
  | Ok acc -> List.rev acc
  | Error e ->
    Alcotest.failf "binary decode failed: %s"
      (Sim.Scan.error_to_string e)

let test_binary_format_of_string () =
  Alcotest.(check bool) "binary" true
    (Sim.Trace.format_of_string "binary" = Some Sim.Trace.Binary);
  Alcotest.(check bool) "bin alias" true
    (Sim.Trace.format_of_string "bin" = Some Sim.Trace.Binary);
  Alcotest.(check string) "to_string" "binary"
    (Sim.Trace.format_to_string Sim.Trace.Binary)

(* [kind_id] maps [all_kinds] onto 0..n-1 in order. *)
let test_kind_ids_are_registry_positions () =
  List.iteri
    (fun i k ->
      Alcotest.(check int)
        (Printf.sprintf "kind_id %s" (Sim.Trace.kind_to_string k))
        i (Sim.Trace.kind_id k))
    Sim.Trace.all_kinds

(* One event per registered kind, with out-of-order timestamps (merged
   per-trial streams restart virtual time, so the zigzag delta path
   must handle negative steps), empty and escaped strings, and repeated
   interned strings. *)
let test_binary_round_trip_all_kinds () =
  let evs =
    List.mapi
      (fun i k ->
        ev
          ~time:(float_of_int ((i * 137) mod 400) /. 8.)
          ~node:(Printf.sprintf "node-t%d-n%d" (i mod 3) i)
          ~kind:k
          ~name:
            (if i mod 4 = 0 then ""
             else Printf.sprintf "/prod/run%d/warm/%d" i i)
          ~attrs:
            (if i mod 2 = 0 then
               [ ("delay_ms", "1.25"); ("face", string_of_int i) ]
             else if i mod 5 = 0 then [ ("weird", "a\"b\\c\nd") ]
             else [])
          ())
      Sim.Trace.all_kinds
  in
  let bin = Sim.Trace.render Sim.Trace.Binary (tracer_of_events evs) in
  let decoded = decode_binary_exn bin in
  Alcotest.(check int) "event count" (List.length evs) (List.length decoded);
  Alcotest.(check string) "JSONL rendering identical"
    (jsonl_of_events evs) (jsonl_of_events decoded)

let gen_event =
  QCheck.Gen.(
    let gstr = string_size ~gen:char (int_range 0 12) in
    map
      (fun (time_us, node, kind, name, attrs) ->
        {
          Sim.Trace.time = float_of_int time_us /. 1e6;
          node;
          kind;
          name;
          attrs;
        })
      (tup5
         (int_range 0 1_000_000_000_000)
         gstr
         (oneofl Sim.Trace.all_kinds)
         gstr
         (list_size (int_range 0 4) (pair gstr gstr))))

let arb_events =
  QCheck.make
    ~print:(fun evs -> jsonl_of_events evs)
    QCheck.Gen.(list_size (int_range 0 40) gen_event)

let qcheck_binary_round_trip =
  QCheck.Test.make ~name:"binary encode/decode = identity (vs JSONL rendering)"
    ~count:300 arb_events (fun evs ->
      let bin = Sim.Trace.render Sim.Trace.Binary (tracer_of_events evs) in
      let decoded = decode_binary_exn bin in
      jsonl_of_events decoded = jsonl_of_events evs)

let qcheck_jsonl_reader_round_trip =
  QCheck.Test.make ~name:"jsonl parse (add_jsonl e) re-renders to e"
    ~count:300 arb_events (fun evs ->
      let src = Sim.Trace_reader.of_string (jsonl_of_events evs) in
      match
        Sim.Trace_reader.fold_jsonl src ~init:[] ~f:(fun acc e -> e :: acc)
      with
      | Error e ->
        QCheck.Test.fail_reportf "jsonl parse failed: %s"
          (Sim.Scan.error_to_string e)
      | Ok parsed -> jsonl_of_events (List.rev parsed) = jsonl_of_events evs)

(* The encoder only appends: the stream of any prefix of the events is
   a prefix of the whole stream, which is what lets [write] flush it in
   chunks. *)
let test_binary_incremental_encoder () =
  let evs = Array.to_list (Sim.Trace.events (probe_trace ())) in
  let whole = Sim.Trace.render Sim.Trace.Binary (tracer_of_events evs) in
  List.iteri
    (fun k _ ->
      let part =
        Sim.Trace.render Sim.Trace.Binary
          (tracer_of_events (List.filteri (fun i _ -> i < k) evs))
      in
      Alcotest.(check string)
        (Printf.sprintf "first %d events are a prefix" k)
        part
        (String.sub whole 0 (String.length part)))
    evs;
  Alcotest.(check string) "rendering again is identical" whole
    (Sim.Trace.render Sim.Trace.Binary (tracer_of_events evs))

(* Both formats go through the one chunked writer; the campaign's JSONL
   spans several 64 KiB chunks. *)
let test_binary_write_matches_render () =
  let tr = (campaign ~jobs:1).Attack.Timing_experiment.trace in
  List.iter
    (fun fmt ->
      let path = Filename.temp_file "trace" ".out" in
      let oc = open_out_bin path in
      Sim.Trace.write fmt oc tr;
      close_out oc;
      let written = read_file path in
      Sys.remove path;
      let what = Sim.Trace.format_to_string fmt in
      let rendered = Sim.Trace.render fmt tr in
      Alcotest.(check int) (what ^ " chunked write length")
        (String.length rendered) (String.length written);
      Alcotest.(check bool) (what ^ " chunked write = render") true
        (written = rendered))
    [ Sim.Trace.Binary; Sim.Trace.Jsonl ]

(* Golden binary probe fixture: byte length + digest of the canonical
   probe run's binary trace.  Catches silent format drift the same way
   the JSONL golden does; bump [Trace.binary_version] when changing
   the wire layout, and update this fixture consciously. *)
let golden_binary_bytes = 1248
let golden_binary_sha256 =
  "5597a20513be92f29d23dfe4d27578f9b967993a2acdc9aeaa5cc28c4ccf4e04"

let test_golden_binary_probe_trace () =
  let bin = Sim.Trace.render Sim.Trace.Binary (probe_trace ()) in
  Alcotest.(check int) "byte length" golden_binary_bytes (String.length bin);
  Alcotest.(check string) "sha256 of the binary trace" golden_binary_sha256
    (Ndn_crypto.Sha256.hex_digest bin);
  (* and it decodes to exactly the golden JSONL trace *)
  Alcotest.(check string) "decodes to the golden JSONL"
    (Sim.Trace.render Sim.Trace.Jsonl (probe_trace ()))
    (jsonl_of_events (decode_binary_exn bin))

(* --- truncation / corruption robustness --- *)

let check_decode_error ~needle s =
  let src = Sim.Trace_reader.of_string s in
  match Sim.Trace_reader.fold_binary src ~init:0 ~f:(fun n _ -> n + 1) with
  | Ok _ -> Alcotest.failf "expected a decode error mentioning %S" needle
  | Error e ->
    let msg = Sim.Scan.error_to_string e in
    if not (contains msg needle) then
      Alcotest.failf "error %S does not mention %S" msg needle;
    (match e.Sim.Scan.position with
    | Sim.Scan.Byte n ->
      if n < 0 then Alcotest.failf "negative byte offset in %S" msg
    | Sim.Scan.Line _ | Sim.Scan.Column _ ->
      Alcotest.failf "expected a byte-positioned error, got %S" msg)

(* magic + version + registry snapshot, no records *)
let header_only = Sim.Trace.render Sim.Trace.Binary (Sim.Trace.create ())

let test_binary_bad_magic () =
  check_decode_error ~needle:"bad magic" ("XXXXXXXX" ^ header_only);
  check_decode_error ~needle:"empty stream" "";
  check_decode_error ~needle:"shorter than the 8-byte magic" "ndntr"

let test_binary_version_mismatch () =
  let bumped =
    String.mapi (fun i c -> if i = 8 then '\x63' else c) header_only
  in
  check_decode_error ~needle:"unsupported binary trace version 99" bumped

let test_binary_truncation () =
  (* record claims 5 payload bytes, stream provides 1 *)
  check_decode_error ~needle:"record truncated" (header_only ^ "\x05\x02");
  (* stream ends inside the record-length varint *)
  check_decode_error ~needle:"ends inside the varint" (header_only ^ "\x80");
  (* the golden probe trace cut mid-record *)
  let bin = Sim.Trace.render Sim.Trace.Binary (probe_trace ()) in
  check_decode_error ~needle:"truncated"
    (String.sub bin 0 (String.length bin - 3))

let test_binary_bad_varint () =
  check_decode_error ~needle:"exceeds 9 bytes"
    (header_only ^ "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80")

let test_binary_framing_violations () =
  (* unknown record tag *)
  check_decode_error ~needle:"unknown record tag" (header_only ^ "\x01\x7f");
  (* event referencing an undefined string *)
  check_decode_error ~needle:"references string #0"
    (header_only ^ "\x06\x02\x00\x00\x00\x00\x00");
  (* string definition with an out-of-order id *)
  check_decode_error ~needle:"out of order" (header_only ^ "\x04\x01\x05\x01a");
  (* kind id beyond the registry snapshot *)
  check_decode_error ~needle:"outside the registry snapshot"
    (header_only ^ "\x07\x02\xc8\x01\x00\x00\x00\x00")

let test_detect_and_auto () =
  let bin = Sim.Trace.render Sim.Trace.Binary (probe_trace ()) in
  let js = Sim.Trace.render Sim.Trace.Jsonl (probe_trace ()) in
  let detect s = Sim.Trace_reader.detect (Sim.Trace_reader.of_string s) in
  Alcotest.(check bool) "binary detected" true
    (detect bin = Sim.Trace_reader.Binary);
  Alcotest.(check bool) "jsonl detected" true
    (detect js = Sim.Trace_reader.Jsonl);
  let csv = "time,node,kind,name,attrs\n" in
  Alcotest.(check bool) "csv sniffs as jsonl" true
    (detect csv = Sim.Trace_reader.Jsonl);
  (match
     Sim.Trace_reader.fold_auto (Sim.Trace_reader.of_string csv) ~init:()
       ~f:(fun () _ -> ())
   with
  | Ok () -> Alcotest.fail "CSV must be rejected"
  | Error e ->
    let msg = Sim.Scan.error_to_string e in
    if e.Sim.Scan.position <> Sim.Scan.Column (1, 1) then
      Alcotest.failf "CSV error %S is not at line 1, column 1" msg);
  let count s =
    match
      Sim.Trace_reader.fold_auto (Sim.Trace_reader.of_string s) ~init:0
        ~f:(fun n _ -> n + 1)
    with
    | Ok n -> n
    | Error e ->
      Alcotest.failf "fold_auto failed: %s" (Sim.Scan.error_to_string e)
  in
  Alcotest.(check int) "auto binary count" golden_lines (count bin);
  Alcotest.(check int) "auto jsonl count" golden_lines (count js)

let test_reader_channel_source () =
  (* the chunked channel path (64 KiB windows + compaction) agrees with
     the in-memory path on a trace larger than one window *)
  let tr = (campaign ~jobs:1).Attack.Timing_experiment.trace in
  let bin = Sim.Trace.render Sim.Trace.Binary tr in
  let path = Filename.temp_file "trace" ".bin" in
  let oc = open_out_bin path in
  output_string oc bin;
  close_out oc;
  let ic = open_in_bin path in
  let via_channel =
    match
      Sim.Trace_reader.fold_binary
        (Sim.Trace_reader.of_channel ic)
        ~init:[] ~f:(fun acc e -> e :: acc)
    with
    | Ok acc -> List.rev acc
    | Error e ->
      Alcotest.failf "channel decode failed: %s"
        (Sim.Scan.error_to_string e)
  in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "channel fold = string fold"
    (jsonl_of_events (decode_binary_exn bin))
    (jsonl_of_events via_channel)

(* --- streaming analyzers --- *)

let analyze_exn s =
  match Sim.Analyze.of_source (Sim.Trace_reader.of_string s) with
  | Ok t -> t
  | Error e ->
    Alcotest.failf "analyze failed: %s" (Sim.Scan.error_to_string e)

let test_analyze_binary_equals_jsonl () =
  let tr = (campaign ~jobs:1).Attack.Timing_experiment.trace in
  let sb = Sim.Analyze.render_json (analyze_exn (Sim.Trace.render Sim.Trace.Binary tr)) in
  let sj = Sim.Analyze.render_json (analyze_exn (Sim.Trace.render Sim.Trace.Jsonl tr)) in
  Alcotest.(check string) "binary and JSONL summaries bit-identical" sb sj;
  (* and both equal feeding the live tracer directly *)
  let live = Sim.Analyze.create () in
  Sim.Trace.iter tr (Sim.Analyze.feed live);
  Alcotest.(check string) "live feed matches" (Sim.Analyze.render_json live) sb;
  Alcotest.(check bool) "attack matrix present" true (contains sb "\"attack\": {")

let test_analyze_attack_numbers () =
  let tr = (campaign ~jobs:1).Attack.Timing_experiment.trace in
  let t = analyze_exn (Sim.Trace.render Sim.Trace.Binary tr) in
  match Sim.Analyze.attack t with
  | None -> Alcotest.fail "no attack matrix found in the campaign trace"
  | Some a ->
    (* 8 contents x 4 runs, one warm and one cold probe each *)
    Alcotest.(check int) "warm probes" 32 a.Sim.Analyze.warm;
    Alcotest.(check int) "cold probes" 32 a.Sim.Analyze.cold;
    Alcotest.(check bool) "tpr in [0,1]" true
      (a.Sim.Analyze.tpr >= 0. && a.Sim.Analyze.tpr <= 1.);
    Alcotest.(check bool) "accuracy in [0,1]" true
      (a.Sim.Analyze.accuracy >= 0. && a.Sim.Analyze.accuracy <= 1.);
    (* an undefended LAN leaks: warm probes hit, cold probes miss *)
    Alcotest.(check bool) "accuracy above chance" true
      (a.Sim.Analyze.accuracy > 0.5)

let test_analyze_sharded_matches () =
  (* Shard stitching orders same-time events by (node id, counter); the
     binary writer must observe that stitched order identically for any
     K — same bytes once the K = 1 [engine.step] records are dropped,
     and the same analyzer summary. *)
  let b1 =
    Sim.Trace.render Sim.Trace.Binary
      (without_engine_steps
         (campaign_sharded ~shards:1).Attack.Timing_experiment.trace)
  in
  let b4 =
    Sim.Trace.render Sim.Trace.Binary
      (campaign_sharded ~shards:4).Attack.Timing_experiment.trace
  in
  Alcotest.(check bool) "binary bytes identical across --shards K" true (b1 = b4);
  Alcotest.(check string) "analyzer summaries identical across --shards K"
    (Sim.Analyze.render_json (analyze_exn b1))
    (Sim.Analyze.render_json (analyze_exn b4))

(* A trace is outside input: a router label whose tier number overflows
   an int lands in the untiered bucket instead of raising. *)
let test_analyze_overlong_tier () =
  let acc = Sim.Analyze.create () in
  List.iter
    (fun node ->
      Sim.Analyze.feed acc
        { Sim.Trace.time = 1.; node; kind = Sim.Trace.Cs_hit; name = "/a"; attrs = [] })
    [ "isp-t2-n5"; "isp-t99999999999999999999-n1" ];
  Alcotest.(check (list (option int))) "tiers" [ Some 2; None ]
    (List.map (fun r -> r.Sim.Analyze.tier) (Sim.Analyze.tiers acc))

let check_merge_law evs k =
  let whole = Sim.Analyze.create () in
  List.iter (Sim.Analyze.feed whole) evs;
  let a = Sim.Analyze.create () and b = Sim.Analyze.create () in
  List.iteri (fun i e -> Sim.Analyze.feed (if i < k then a else b) e) evs;
  let m = Sim.Analyze.merge a b in
  Alcotest.(check int) "events" (Sim.Analyze.events whole) (Sim.Analyze.events m);
  Alcotest.(check int) "span_us" (Sim.Analyze.span_us whole) (Sim.Analyze.span_us m);
  Alcotest.(check int) "nodes" (Sim.Analyze.distinct_nodes whole)
    (Sim.Analyze.distinct_nodes m);
  Alcotest.(check int) "names" (Sim.Analyze.distinct_names whole)
    (Sim.Analyze.distinct_names m);
  List.iter
    (fun kind ->
      Alcotest.(check int)
        (Printf.sprintf "count %s" (Sim.Trace.kind_to_string kind))
        (Sim.Analyze.kind_count whole kind)
        (Sim.Analyze.kind_count m kind))
    Sim.Trace.all_kinds;
  Alcotest.(check bool) "attack matrices equal" true
    (Sim.Analyze.attack whole = Sim.Analyze.attack m);
  Alcotest.(check bool) "tier rows equal" true
    (Sim.Analyze.tiers whole = Sim.Analyze.tiers m);
  Alcotest.(check bool) "histograms equal" true
    (Sim.Histogram.equal (Sim.Analyze.delay_hist whole) (Sim.Analyze.delay_hist m));
  Alcotest.(check int) "delay count"
    (Sim.Stats.count (Sim.Analyze.delay whole))
    (Sim.Stats.count (Sim.Analyze.delay m));
  (* the parallel Welford merge reassociates float additions, so the
     moments agree to tolerance rather than bit-for-bit *)
  if Sim.Stats.count (Sim.Analyze.delay whole) > 0 then begin
    Alcotest.(check (float 1e-9)) "delay mean"
      (Sim.Stats.mean (Sim.Analyze.delay whole))
      (Sim.Stats.mean (Sim.Analyze.delay m));
    if Sim.Stats.count (Sim.Analyze.delay whole) > 1 then
      Alcotest.(check (float 1e-9)) "delay stddev"
        (Sim.Stats.stddev (Sim.Analyze.delay whole))
        (Sim.Stats.stddev (Sim.Analyze.delay m))
  end

let test_analyze_merge_law () =
  let evs =
    Array.to_list
      (Sim.Trace.events (campaign ~jobs:1).Attack.Timing_experiment.trace)
  in
  let n = List.length evs in
  List.iter (check_merge_law evs) [ 0; 1; n / 3; n / 2; n - 1; n ]

let qcheck_analyze_merge_law =
  QCheck.Test.make ~name:"analyzer split-feed-merge = whole-feed" ~count:50
    QCheck.(pair arb_events (int_range 0 1000))
    (fun (evs, cut) ->
      let k = if evs = [] then 0 else cut mod (List.length evs + 1) in
      let whole = Sim.Analyze.create () in
      List.iter (Sim.Analyze.feed whole) evs;
      let a = Sim.Analyze.create () and b = Sim.Analyze.create () in
      List.iteri (fun i e -> Sim.Analyze.feed (if i < k then a else b) e) evs;
      let m = Sim.Analyze.merge a b in
      Sim.Analyze.events whole = Sim.Analyze.events m
      && Sim.Analyze.attack whole = Sim.Analyze.attack m
      && Sim.Analyze.tiers whole = Sim.Analyze.tiers m
      && Sim.Histogram.equal (Sim.Analyze.delay_hist whole)
           (Sim.Analyze.delay_hist m)
      && List.for_all
           (fun kind ->
             Sim.Analyze.kind_count whole kind = Sim.Analyze.kind_count m kind)
           Sim.Trace.all_kinds)

let () =
  Alcotest.run "trace"
    [
      ( "schema",
        [
          Alcotest.test_case "kind round-trip" `Quick test_kind_round_trip;
          Alcotest.test_case "kind names unique" `Quick test_kind_names_unique;
          Alcotest.test_case "unknown kind" `Quick test_kind_of_string_unknown;
          Alcotest.test_case "format_of_string" `Quick test_format_of_string;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "jsonl basic" `Quick test_jsonl_basic;
          Alcotest.test_case "jsonl escaping" `Quick test_jsonl_escaping;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "buffering order" `Quick test_buffering_order;
          Alcotest.test_case "sink streams" `Quick test_sink_streams;
          Alcotest.test_case "merge order" `Quick test_merge_preserves_order;
        ] );
      ( "emission",
        [
          Alcotest.test_case "probe covers all layers" `Quick
            test_probe_emits_all_layers;
          Alcotest.test_case "times monotone" `Quick test_probe_times_monotone;
          Alcotest.test_case "tracing does not perturb results" `Quick
            test_tracing_does_not_perturb_results;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs-invariant jsonl" `Slow
            test_jobs_invariant_jsonl;
          Alcotest.test_case "jobs-invariant binary" `Slow
            test_jobs_invariant_binary;
          Alcotest.test_case "golden probe trace" `Quick
            test_golden_probe_trace;
          Alcotest.test_case "golden attack trace" `Slow
            test_golden_attack_trace;
          Alcotest.test_case "golden sharded attack trace" `Slow
            test_golden_sharded_attack_trace;
          Alcotest.test_case "engine.step per event at K = 1" `Quick
            test_engine_steps_count_events;
        ] );
      ( "topo",
        [
          Alcotest.test_case "round-trip figure1" `Quick
            test_topo_round_trip_figure1;
          Alcotest.test_case "round-trip dumbbell" `Quick
            test_topo_round_trip_dumbbell;
          Alcotest.test_case "fixtures build" `Quick test_topo_fixtures_build;
          Alcotest.test_case "node errors" `Quick test_topo_error_node;
          Alcotest.test_case "link errors" `Quick test_topo_error_link;
          Alcotest.test_case "route errors" `Quick test_topo_error_route;
          Alcotest.test_case "NUL in a name" `Quick test_topo_error_nul_name;
          Alcotest.test_case "unknown attribute" `Quick
            test_topo_error_unknown_attr;
          Alcotest.test_case "latency errors" `Quick test_topo_error_latency;
          Alcotest.test_case "loss range" `Quick test_topo_error_loss_range;
          Alcotest.test_case "latency parameter ranges" `Quick
            test_topo_error_latency_ranges;
          Alcotest.test_case "fault parse and print" `Quick
            test_topo_fault_parse_and_print;
          Alcotest.test_case "fault errors" `Quick test_topo_fault_errors;
          Alcotest.test_case "fault builds and fires" `Quick
            test_topo_fault_builds_and_fires;
          Alcotest.test_case "unknown directive" `Quick
            test_topo_error_unknown_directive;
          Alcotest.test_case "line numbers" `Quick
            test_topo_error_line_numbers;
          Alcotest.test_case "semantic errors carry lines" `Quick
            test_topo_semantic_errors_carry_lines;
        ] );
      ( "binary",
        [
          Alcotest.test_case "format_of_string binary" `Quick
            test_binary_format_of_string;
          Alcotest.test_case "kind ids = registry positions" `Quick
            test_kind_ids_are_registry_positions;
          Alcotest.test_case "round-trip all kinds" `Quick
            test_binary_round_trip_all_kinds;
          Alcotest.test_case "incremental encoder" `Quick
            test_binary_incremental_encoder;
          Alcotest.test_case "write = render" `Slow
            test_binary_write_matches_render;
          Alcotest.test_case "golden binary probe trace" `Quick
            test_golden_binary_probe_trace;
          Alcotest.test_case "bad magic" `Quick test_binary_bad_magic;
          Alcotest.test_case "version mismatch" `Quick
            test_binary_version_mismatch;
          Alcotest.test_case "truncation" `Quick test_binary_truncation;
          Alcotest.test_case "bad varint" `Quick test_binary_bad_varint;
          Alcotest.test_case "framing violations" `Quick
            test_binary_framing_violations;
          Alcotest.test_case "detect and fold_auto" `Quick test_detect_and_auto;
          Alcotest.test_case "channel source" `Slow test_reader_channel_source;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "binary = jsonl bit-for-bit" `Slow
            test_analyze_binary_equals_jsonl;
          Alcotest.test_case "attack confusion matrix" `Slow
            test_analyze_attack_numbers;
          Alcotest.test_case "sharded analyzer matches" `Slow
            test_analyze_sharded_matches;
          Alcotest.test_case "merge law on campaign" `Slow
            test_analyze_merge_law;
          Alcotest.test_case "overlong tier is untiered" `Quick
            test_analyze_overlong_tier;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_binary_round_trip;
            qcheck_jsonl_reader_round_trip;
            qcheck_analyze_merge_law;
          ] );
    ]
