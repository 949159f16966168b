(* ndnlint test suite: golden JSONL findings for every rule ID over the
   fixture trees in test/lint_fixtures/, the suppression mechanisms
   (pragma, path-scoped allowlist), and — via the library API, not a
   subprocess — the check that the real repository tree lints clean.

   The fixture "tree" mimics a repo root (lib/, bin/) so path-scoped
   rules behave exactly as they do on the real tree; fixture files only
   need to parse, never to compile. *)

let fixture_root = "lint_fixtures/tree"

let fixture_config ?allowlist_file () =
  Ndnlint.config ~paths:[ "lib"; "bin" ] ?allowlist_file
    ~registry_file:"registry.txt" ~root:fixture_root ()

let lint_exn cfg =
  match Ndnlint.lint cfg with
  | Ok findings -> findings
  | Error msg -> Alcotest.failf "ndnlint error: %s" msg

let lint_full_exn cfg =
  match Ndnlint.lint_full cfg with
  | Ok r -> r
  | Error msg -> Alcotest.failf "ndnlint error: %s" msg

let syntactic_rule_ids =
  List.filter_map
    (fun r ->
      if r.Ndnlint.typed || r.Ndnlint.id = "S3" then None else Some r.Ndnlint.id)
    Ndnlint.all_rules

let all_rule_ids = List.map (fun r -> r.Ndnlint.id) Ndnlint.all_rules

(* Every finding the fixture tree must produce, in output order.  One
   golden line per rule ID at minimum; statuses exercise the pragma
   path ("pragma") alongside active findings. *)
let golden_jsonl =
  [
    {|{"rule":"D5","severity":"error","file":"lib/sim/bad_compare.ml","line":1,"col":29,"message":"polymorphic compare in a key-bearing library; use the key module's dedicated compare (Name.compare, String.compare, Float.compare, ...)","status":"active"}|};
    {|{"rule":"D5","severity":"error","file":"lib/sim/bad_compare.ml","line":2,"col":20,"message":"polymorphic Hashtbl.hash in a key-bearing library; hash a canonical scalar (e.g. the key string) or use the key module's hash","status":"active"}|};
    {|{"rule":"D5","severity":"error","file":"lib/sim/bad_compare.ml","line":2,"col":37,"message":"polymorphic Hashtbl.hash in a key-bearing library; hash a canonical scalar (e.g. the key string) or use the key module's hash","status":"active"}|};
    {|{"rule":"D6","severity":"error","file":"lib/sim/bad_compare.ml","line":3,"col":17,"message":"structural (=) on an abstract key value; use the key module's equal/compare so representation changes cannot silently alter results","status":"active"}|};
    {|{"rule":"D8","severity":"error","file":"lib/sim/bad_domain.ml","line":1,"col":8,"message":"raw Domain use in lib/; all concurrency must flow through Sim.Parallel (trial fan-out) or Sim.Shard (intra-trial sharding), which centralize the determinism argument — ad-hoc domains, locks or atomics can reorder events with the scheduler","status":"active"}|};
    {|{"rule":"D8","severity":"error","file":"lib/sim/bad_domain.ml","line":2,"col":8,"message":"raw Mutex use in lib/; all concurrency must flow through Sim.Parallel (trial fan-out) or Sim.Shard (intra-trial sharding), which centralize the determinism argument — ad-hoc domains, locks or atomics can reorder events with the scheduler","status":"active"}|};
    {|{"rule":"D8","severity":"error","file":"lib/sim/bad_domain.ml","line":3,"col":8,"message":"raw Atomic use in lib/; all concurrency must flow through Sim.Parallel (trial fan-out) or Sim.Shard (intra-trial sharding), which centralize the determinism argument — ad-hoc domains, locks or atomics can reorder events with the scheduler","status":"active"}|};
    {|{"rule":"D4","severity":"error","file":"lib/sim/bad_env.ml","line":1,"col":14,"message":"Sys.getenv in lib/: environment must not influence simulation results; plumb configuration through function arguments","status":"active"}|};
    {|{"rule":"D4","severity":"error","file":"lib/sim/bad_env.ml","line":2,"col":15,"message":"Sys.getenv_opt in lib/: environment must not influence simulation results; plumb configuration through function arguments","status":"active"}|};
    {|{"rule":"D7","severity":"warning","file":"lib/sim/bad_hashtbl.ml","line":1,"col":15,"message":"Hashtbl.iter iterates in hash order; sort before anything order-sensitive (or suppress with a pragma/allowlist entry explaining why the order cannot leak)","status":"active"}|};
    {|{"rule":"D1","severity":"error","file":"lib/sim/bad_random.ml","line":1,"col":14,"message":"nondeterministic RNG seeding; every stream must derive from an explicit seed via Sim.Rng","status":"active"}|};
    {|{"rule":"D2","severity":"error","file":"lib/sim/bad_random.ml","line":2,"col":14,"message":"Random.int uses the global Random state; draw from a Sim.Rng generator instead","status":"active"}|};
    {|{"rule":"D1","severity":"error","file":"lib/sim/bad_random.ml","line":3,"col":15,"message":"nondeterministic RNG seeding; every stream must derive from an explicit seed via Sim.Rng","status":"active"}|};
    {|{"rule":"S2","severity":"error","file":"lib/sim/bad_stdout.ml","line":1,"col":16,"message":"print_endline writes to stdout from lib/; stdout belongs to results and trace exports — route diagnostics to stderr or a formatter argument","status":"active"}|};
    {|{"rule":"S2","severity":"error","file":"lib/sim/bad_stdout.ml","line":2,"col":15,"message":"Printf.printf writes to stdout from lib/; stdout belongs to results and trace exports — route diagnostics to stderr or a formatter argument","status":"active"}|};
    {|{"rule":"S2","severity":"error","file":"lib/sim/bad_stdout.ml","line":3,"col":16,"message":"Format.printf writes to stdout from lib/; stdout belongs to results and trace exports — route diagnostics to stderr or a formatter argument","status":"active"}|};
    {|{"rule":"E0","severity":"error","file":"lib/sim/bad_syntax.ml","line":1,"col":13,"message":"syntax error; file cannot be checked","status":"active"}|};
    {|{"rule":"T1","severity":"error","file":"lib/sim/bad_trace.ml","line":5,"col":15,"message":"trace kind \"cs.sneaky\" is emitted here but absent from the registry; add it (and document it) before shipping the event","status":"active"}|};
    {|{"rule":"T4","severity":"error","file":"lib/sim/bad_trace.ml","line":7,"col":14,"message":"registered trace kind \"cs.quiet\" has no stable binary id: add a kind_id case mapping Quiet to its registry position 3, or binary traces cannot encode it","status":"active"}|};
    {|{"rule":"T4","severity":"error","file":"lib/sim/bad_trace.ml","line":11,"col":13,"message":"binary id 1 for trace kind \"nack.congested\" disagrees with its registry position 2; the binary header snapshots the registry in order, so readers would decode the wrong kind","status":"active"}|};
    {|{"rule":"D3","severity":"error","file":"lib/sim/bad_wallclock.ml","line":1,"col":13,"message":"wall-clock read (Unix.gettimeofday) outside bin/; simulated components must only see virtual time","status":"active"}|};
    {|{"rule":"D3","severity":"error","file":"lib/sim/bad_wallclock.ml","line":2,"col":13,"message":"wall-clock read (Sys.time) outside bin/; simulated components must only see virtual time","status":"active"}|};
    {|{"rule":"T3","severity":"error","file":"lib/sim/nack.ml","line":1,"col":24,"message":"NACK reason constructor Sneaky_reason has no registered trace kind \"nack.sneaky_reason\"; register (and emit) it so this refusal stays observable","status":"active"}|};
    {|{"rule":"S1","severity":"error","file":"lib/sim/no_mli.ml","line":1,"col":0,"message":"module under lib/ has no .mli; every library module must declare its interface","status":"active"}|};
    {|{"rule":"D5","severity":"error","file":"lib/sim/pragma_ok.ml","line":1,"col":8,"message":"polymorphic Hashtbl.hash in a key-bearing library; hash a canonical scalar (e.g. the key string) or use the key module's hash","status":"pragma"}|};
    {|{"rule":"D2","severity":"error","file":"lib/sim/pragma_ok.ml","line":4,"col":11,"message":"Random.bool uses the global Random state; draw from a Sim.Rng generator instead","status":"pragma"}|};
    {|{"rule":"D3","severity":"error","file":"lib/sim/stale_pragma.ml","line":13,"col":15,"message":"wall-clock read (Unix.gettimeofday) outside bin/; simulated components must only see virtual time","status":"pragma"}|};
    {|{"rule":"D4","severity":"error","file":"lib/sim/stale_pragma.ml","line":13,"col":37,"message":"Sys.getenv in lib/: environment must not influence simulation results; plumb configuration through function arguments","status":"pragma"}|};
    {|{"rule":"T2","severity":"error","file":"registry.txt","line":3,"col":0,"message":"registry lists trace kind \"old.kind\" but no kind_to_string emits it; remove the stale entry","status":"active"}|};
  ]

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_golden_jsonl () =
  let findings = lint_exn (fixture_config ()) in
  Alcotest.(check (list string))
    "golden JSONL findings" golden_jsonl
    (lines (Ndnlint.render Ndnlint.Jsonl findings));
  Alcotest.(check int) "fixture tree fails the lint" 1 (Ndnlint.exit_code findings)

(* Every shipped syntactic rule ID must be covered by at least one
   golden finding, so a new rule cannot land without a fixture.  S3 is
   covered by the stale-suppression tests below; the typed rules (R1,
   A1, A2, G1, U1) are produced by the Ndntype cmt pass and covered by
   test_ndntype's planted fixtures. *)
let test_rule_coverage () =
  let seen = List.map (fun f -> f.Ndnlint.rule) (lint_exn (fixture_config ())) in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s has a fixture finding" id)
        true (List.mem id seen))
    syntactic_rule_ids;
  (* The table itself must still carry the non-syntactic rules. *)
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s is in the table" id)
        true (List.mem id all_rule_ids))
    [ "S3"; "R1"; "A1"; "A2"; "G1"; "U1" ]

(* The acceptance check in one test: introducing Random.self_init into
   lib/sim makes the lint exit non-zero. *)
let test_self_init_fails () =
  let findings = lint_exn (fixture_config ()) in
  let d1 =
    List.filter
      (fun f -> f.Ndnlint.rule = "D1" && f.Ndnlint.file = "lib/sim/bad_random.ml")
      findings
  in
  Alcotest.(check int) "self_init is reported" 2 (List.length d1);
  Alcotest.(check int) "and fails the build" 1 (Ndnlint.exit_code findings)

let status_label = function
  | Ndnlint.Active -> "active"
  | Ndnlint.Allowlisted _ -> "allowlisted"
  | Ndnlint.Pragma_suppressed -> "pragma"

let find_one findings ~rule ~file =
  match
    List.filter
      (fun f -> f.Ndnlint.rule = rule && f.Ndnlint.file = file)
      findings
  with
  | f :: _ -> f
  | [] -> Alcotest.failf "no %s finding in %s" rule file

let test_allowlist () =
  let findings = lint_exn (fixture_config ~allowlist_file:"allow.txt" ()) in
  (* Exact-file scope suppresses, and the justification is carried. *)
  (match (find_one findings ~rule:"D1" ~file:"lib/sim/bad_random.ml").Ndnlint.status with
  | Ndnlint.Allowlisted j ->
    Alcotest.(check string)
      "justification preserved" "fixture: self-init is the point of this file" j
  | s -> Alcotest.failf "D1 should be allowlisted, got %s" (status_label s));
  (* Directory scope ("lib/sim/") matches files below it. *)
  Alcotest.(check string)
    "dir-scoped entry applies" "allowlisted"
    (status_label
       (find_one findings ~rule:"D3" ~file:"lib/sim/bad_wallclock.ml").Ndnlint.status);
  (* An entry for a different path must not leak across directories. *)
  Alcotest.(check string)
    "entry for another path does not apply" "active"
    (status_label
       (find_one findings ~rule:"D4" ~file:"lib/sim/bad_env.ml").Ndnlint.status);
  (* Unallowed findings remain, so the tree still fails. *)
  Alcotest.(check int) "still non-zero" 1 (Ndnlint.exit_code findings)

(* One comment, several rules: an `allow D3, D4` pragma suppresses
   both on the covered line and records a single site.  The marker is
   spelled in two pieces below so the real-tree scan of this very file
   does not read the sample as a live (and stale) pragma. *)
let test_multi_rule_pragma () =
  let src =
    "let a = 1\n(* ndn" ^ "lint: allow D3, D4 -- two rules, one comment *)\n"
    ^ "let b = 2\n"
  in
  let p = Ndnlint.pragmas_of_source src in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (rule ^ " suppressed on the covered line")
        true
        (Ndnlint.pragma_suppresses p ~line:3 ~rule))
    [ "D3"; "D4" ];
  Alcotest.(check bool)
    "unlisted rule not suppressed" false
    (Ndnlint.pragma_suppresses p ~line:3 ~rule:"D1");
  match Ndnlint.pragma_sites p with
  | [ site ] ->
    Alcotest.(check (list string))
      "site carries both rules" [ "D3"; "D4" ] site.Ndnlint.ps_rules;
    Alcotest.(check int) "site line" 2 site.Ndnlint.ps_line;
    Alcotest.(check (list int)) "covers itself and the next line" [ 2; 3 ]
      (List.sort compare site.Ndnlint.ps_covers)
  | sites -> Alcotest.failf "expected one pragma site, got %d" (List.length sites)

(* S3 over pragmas: the D1 pragma in stale_pragma.ml covers a line
   that triggers nothing, so the syntactic universe flags it; the
   trailing `allow all` pragma is only condemned by a pass that
   checked the whole rule table. *)
let test_stale_pragma () =
  let findings, inventory = lint_full_exn (fixture_config ()) in
  let stale =
    Ndnlint.stale_findings ~checked_rules:syntactic_rule_ids inventory findings
  in
  (match stale with
  | [ s ] ->
    Alcotest.(check string) "S3 rule" "S3" s.Ndnlint.rule;
    Alcotest.(check string)
      "stale pragma file" "lib/sim/stale_pragma.ml" s.Ndnlint.file;
    Alcotest.(check int) "stale pragma line" 9 s.Ndnlint.line;
    Alcotest.(check bool)
      "message names the unused rule" true (contains ~sub:"D1" s.Ndnlint.message);
    Alcotest.(check int) "stale suppressions fail the build" 1
      (Ndnlint.exit_code (stale @ findings))
  | ss -> Alcotest.failf "expected exactly one stale finding, got %d" (List.length ss));
  let full =
    Ndnlint.stale_findings ~checked_rules:all_rule_ids inventory findings
  in
  Alcotest.(check int) "full universe also condemns the stale `all` pragma" 2
    (List.length full);
  Alcotest.(check bool)
    "the extra stale site is the `all` pragma" true
    (List.exists
       (fun s -> s.Ndnlint.file = "lib/sim/stale_pragma.ml" && s.Ndnlint.line = 15)
       full)

(* S3 over the allowlist: allow.txt's D4 entry points at a path that
   produces no finding, so it is reported at its own line in the
   allowlist file; the two entries that did suppress stay silent. *)
let test_stale_allowlist () =
  let findings, inventory =
    lint_full_exn (fixture_config ~allowlist_file:"allow.txt" ())
  in
  let stale =
    Ndnlint.stale_findings ~checked_rules:syntactic_rule_ids inventory findings
  in
  (match List.filter (fun s -> s.Ndnlint.file = "allow.txt") stale with
  | [ s ] ->
    Alcotest.(check bool)
      "flags the entry that matches nothing" true
      (contains ~sub:"D4 lib/ndn/bad_env.ml" s.Ndnlint.message);
    Alcotest.(check int) "at the entry's own line" 4 s.Ndnlint.line
  | ss -> Alcotest.failf "expected one stale allowlist entry, got %d" (List.length ss));
  Alcotest.(check bool)
    "used entries stay silent" false
    (List.exists
       (fun s -> contains ~sub:"lib/sim/bad_random.ml" s.Ndnlint.message)
       stale)

(* Path-scoped severities: by default D3 is skipped under bench/; a
   Demote entry keeps the finding but downgrades it to a warning. *)
let test_scoped_severities () =
  let skip_cfg = Ndnlint.config ~paths:[ "bench" ] ~root:fixture_root () in
  Alcotest.(check (list string))
    "bench wall-clock skipped by default" []
    (List.map Ndnlint.finding_to_text (lint_exn skip_cfg));
  let demote_cfg =
    Ndnlint.config ~paths:[ "bench" ] ~root:fixture_root
      ~scoped:
        [ { Ndnlint.s_rule = "D3"; s_path = "bench/"; s_action = Ndnlint.Demote } ]
      ()
  in
  (match lint_exn demote_cfg with
  | [ f ] ->
    Alcotest.(check string) "demoted finding is D3" "D3" f.Ndnlint.rule;
    Alcotest.(check bool)
      "demoted to warning" true
      (f.Ndnlint.severity = Ndnlint.Warning)
  | fs -> Alcotest.failf "expected one demoted finding, got %d" (List.length fs));
  let plain_cfg =
    Ndnlint.config ~paths:[ "bench" ] ~root:fixture_root ~scoped:[] ()
  in
  match lint_exn plain_cfg with
  | [ f ] ->
    Alcotest.(check bool)
      "error without scoping" true
      (f.Ndnlint.severity = Ndnlint.Error)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_allowlist_requires_justification () =
  match Ndnlint.lint (fixture_config ~allowlist_file:"allow_broken.txt" ()) with
  | Ok _ -> Alcotest.fail "allowlist without justification must be rejected"
  | Error msg ->
    Alcotest.(check bool)
      "error mentions the missing justification" true
      (contains ~sub:"justification" msg)

let test_clean_tree () =
  let findings =
    lint_exn (Ndnlint.config ~paths:[ "lib" ] ~root:"lint_fixtures/clean" ())
  in
  Alcotest.(check (list string)) "no findings" [] (List.map Ndnlint.finding_to_text findings);
  Alcotest.(check int) "exit 0" 0 (Ndnlint.exit_code findings)

(* `dune build @lint` equivalent, via the library API: the shipped tree
   has no unallowed finding.  Runs from _build/default/test, so the
   repo root is "..". *)
let test_real_tree_passes () =
  let cfg =
    Ndnlint.config ~root:".."
      ~allowlist_file:"tools/ndnlint/allowlist.txt"
      ~registry_file:"lib/sim/trace_kinds.txt" ()
  in
  let findings, inventory = lint_full_exn cfg in
  Alcotest.(check (list string))
    "no active findings on the shipped tree" []
    (List.map Ndnlint.finding_to_text (Ndnlint.active findings));
  Alcotest.(check int) "exit 0" 0 (Ndnlint.exit_code findings);
  (* Every syntactic-rule suppression in the shipped tree still earns
     its keep.  (Typed-rule suppressions are judged in test_ndntype,
     where the merged syntactic+typed universe is available.) *)
  Alcotest.(check (list string))
    "no stale suppressions on the shipped tree" []
    (List.map Ndnlint.finding_to_text
       (Ndnlint.stale_findings ~checked_rules:syntactic_rule_ids inventory
          findings))

(* The checked-in registry and Sim.Trace's programmatic list are the
   same list, in the same order. *)
let test_registry_matches_trace () =
  let registry =
    In_channel.with_open_bin "../lib/sim/trace_kinds.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check (list string))
    "trace_kinds.txt = Trace.all_kind_names" Sim.Trace.all_kind_names registry;
  (* And round-trips through the typed API. *)
  List.iter
    (fun name ->
      match Sim.Trace.kind_of_string name with
      | Some k ->
        Alcotest.(check string) "round-trip" name (Sim.Trace.kind_to_string k)
      | None -> Alcotest.failf "registry kind %s unknown to Trace" name)
    registry

let () =
  Alcotest.run "ndnlint"
    [
      ( "rules",
        [
          Alcotest.test_case "golden jsonl" `Quick test_golden_jsonl;
          Alcotest.test_case "every rule has a fixture" `Quick test_rule_coverage;
          Alcotest.test_case "self_init fails the build" `Quick test_self_init_fails;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "allowlist scoping" `Quick test_allowlist;
          Alcotest.test_case "multi-rule pragma" `Quick test_multi_rule_pragma;
          Alcotest.test_case "stale pragma (S3)" `Quick test_stale_pragma;
          Alcotest.test_case "stale allowlist entry (S3)" `Quick
            test_stale_allowlist;
          Alcotest.test_case "path-scoped severities" `Quick
            test_scoped_severities;
          Alcotest.test_case "allowlist needs justification" `Quick
            test_allowlist_requires_justification;
        ] );
      ( "trees",
        [
          Alcotest.test_case "clean fixture exits 0" `Quick test_clean_tree;
          Alcotest.test_case "real tree passes" `Quick test_real_tree_passes;
          Alcotest.test_case "registry = Trace.all_kind_names" `Quick
            test_registry_matches_trace;
        ] );
    ]
