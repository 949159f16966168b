(* ndntype test suite: the typed (.cmt-based) pass over the planted
   fixtures in test/typedlint_fixtures/ — a compiled library whose cmts
   the ordinary build produces — plus, via the library API, the check
   that the real repository tree passes the typed rules with every
   suppression justified.

   Runs from _build/default/test, where ".." is the one directory that
   holds both the sources and their .cmt files. *)

let fixture_cfg =
  Ndntype.config ~root:".."
    ~paths:[ "test/typedlint_fixtures" ]
    ~excludes:[]
    ~lib_prefixes:[ "test/typedlint_fixtures/" ]
    ()

let run_exn cfg =
  match Ndntype.run cfg with
  | Ok r -> r
  | Error msg -> Alcotest.failf "ndntype error: %s" msg

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let in_file file f = f.Ndnlint.file = file

let rule r f = f.Ndnlint.rule = r

(* Every finding the planted fixtures must produce, in output order —
   the typed counterpart of test_ndnlint's golden list.  exports.mli
   declares four values and only the one no other unit names is
   flagged: exports_user.ml reaches the other three through
   [module E = Exports], [let open Exports in] and [let*]. *)
let golden_jsonl =
  [
    {|{"rule":"U1","severity":"error","file":"test/typedlint_fixtures/exports.mli","line":5,"col":0,"message":"`Typedlint_fixture.Exports.unreferenced` is exported but no other unit references it; delete it, or drop it from the interface if its own unit still uses it","status":"active"}|};
    {|{"rule":"A1","severity":"error","file":"test/typedlint_fixtures/planted_boxing.ml","line":9,"col":19,"message":"closure allocation in hot function `centroid`","status":"active"}|};
    {|{"rule":"A1","severity":"error","file":"test/typedlint_fixtures/planted_boxing.ml","line":9,"col":33,"message":"closure allocation in hot function `centroid`","status":"active"}|};
    {|{"rule":"A1","severity":"error","file":"test/typedlint_fixtures/planted_boxing.ml","line":9,"col":38,"message":"tuple allocation in hot function `centroid`","status":"active"}|};
    {|{"rule":"A1","severity":"error","file":"test/typedlint_fixtures/planted_boxing.ml","line":9,"col":62,"message":"tuple allocation in hot function `centroid`","status":"active"}|};
    {|{"rule":"A1","severity":"error","file":"test/typedlint_fixtures/planted_boxing.ml","line":11,"col":2,"message":"tuple allocation in hot function `centroid`","status":"active"}|};
    {|{"rule":"A2","severity":"error","file":"test/typedlint_fixtures/planted_boxing.ml","line":14,"col":31,"message":"generic structural (=) at point; the compiler specializes comparisons only at immediate scalar types — use a monomorphic compare in hot function `same_point`","status":"active"}|};
    {|{"rule":"R1","severity":"error","file":"test/typedlint_fixtures/planted_race.ml","line":6,"col":0,"message":"module-level mutable state `shared_hits` (Stdlib.Hashtbl.t) in a domain-shared unit; shard domains can reach it concurrently — confine it with Domain.DLS, thread it through explicit state, or allowlist with an ownership justification","status":"active"}|};
    {|{"rule":"G1","severity":"error","file":"test/typedlint_fixtures/rng_misuse.ml","line":8,"col":25,"message":"RNG handle `parent` was split at line 7 and is used again here; after a split, draw only from the children (or suppress with a stream-layout justification)","status":"active"}|};
  ]

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let test_golden_jsonl () =
  let report = run_exn fixture_cfg in
  Alcotest.(check (list string))
    "golden typed JSONL findings" golden_jsonl
    (lines (Ndnlint.render Ndnlint.Jsonl report.Ndntype.findings));
  Alcotest.(check int)
    "planted fixtures fail the lint" 1
    (Ndnlint.exit_code report.Ndntype.findings)

(* R1: a module-level Hashtbl in a unit that imports Sim.Engine — the
   callback it schedules would race on the table under Sim.Shard. *)
let test_planted_race () =
  let report = run_exn fixture_cfg in
  let r1 =
    List.filter
      (fun f -> rule "R1" f && in_file "test/typedlint_fixtures/planted_race.ml" f)
      report.Ndntype.findings
  in
  (match r1 with
  | [ f ] ->
    Alcotest.(check bool)
      "R1 names the shared table" true
      (contains ~sub:"shared_hits" f.Ndnlint.message);
    Alcotest.(check bool)
      "R1 is active" true
      (f.Ndnlint.status = Ndnlint.Active)
  | fs -> Alcotest.failf "expected exactly one R1 finding, got %d" (List.length fs));
  (* The unit entered the closure because it imports a spawn unit. *)
  Alcotest.(check bool)
    "fixture unit is in the shared closure" true
    (List.exists
       (fun u -> contains ~sub:"Planted_race" u)
       report.Ndntype.shared_units)

(* A1/A2: a hot-annotated function that builds closures and tuples, and
   one that compares records structurally. *)
let test_planted_boxing () =
  let report = run_exn fixture_cfg in
  let boxing = "test/typedlint_fixtures/planted_boxing.ml" in
  let a1 = List.filter (fun f -> rule "A1" f && in_file boxing f) report.Ndntype.findings in
  Alcotest.(check bool)
    "A1 flags the closure in centroid" true
    (List.exists
       (fun f ->
         contains ~sub:"closure" f.Ndnlint.message
         && contains ~sub:"centroid" f.Ndnlint.message)
       a1);
  Alcotest.(check bool)
    "A1 flags tuple allocation in centroid" true
    (List.exists (fun f -> contains ~sub:"tuple" f.Ndnlint.message) a1);
  let a2 = List.filter (fun f -> rule "A2" f && in_file boxing f) report.Ndntype.findings in
  Alcotest.(check bool)
    "A2 flags the structural compare in same_point" true
    (List.exists (fun f -> contains ~sub:"same_point" f.Ndnlint.message) a2);
  (* Both hot annotations attached to their bindings. *)
  let hot_in_boxing =
    List.filter
      (fun h -> h.Ndntype.hf_file = boxing)
      report.Ndntype.hot_functions
  in
  Alcotest.(check (list string))
    "hot inventory for the fixture" [ "centroid"; "same_point" ]
    (List.sort compare (List.map (fun h -> h.Ndntype.hf_name) hot_in_boxing))

(* G1: drawing from the parent handle after splitting it is flagged;
   feeding the parent back into split (resplit_ok) is exempt. *)
let test_rng_misuse () =
  let report = run_exn fixture_cfg in
  let g1 =
    List.filter
      (fun f -> rule "G1" f && in_file "test/typedlint_fixtures/rng_misuse.ml" f)
      report.Ndntype.findings
  in
  match g1 with
  | [ f ] ->
    Alcotest.(check bool)
      "G1 names the split handle" true
      (contains ~sub:"parent" f.Ndnlint.message);
    Alcotest.(check int) "flagged at the post-split draw" 8 f.Ndnlint.line
  | fs ->
    Alcotest.failf "expected exactly one G1 finding (resplit is exempt), got %d"
      (List.length fs)

(* `dune build @typedlint` equivalent, via the library API: the shipped
   tree has no active typed finding. *)
let real_tree_cfg =
  Ndntype.config ~root:".." ~allowlist_file:"tools/ndnlint/allowlist.txt" ()

let test_real_tree_passes () =
  let report = run_exn real_tree_cfg in
  Alcotest.(check (list string))
    "no active typed findings on the shipped tree" []
    (List.map Ndnlint.finding_to_text (Ndnlint.active report.Ndntype.findings));
  Alcotest.(check bool)
    "the R1 closure is seeded" true
    (List.mem "Sim__Engine" report.Ndntype.shared_units)

(* The PR-5 hot paths carry their annotations: the dynamic alloc/op
   ceiling in bench now has a static sibling, and this inventory pins
   the annotations to the bindings they cover. *)
let test_hot_inventory () =
  let report = run_exn real_tree_cfg in
  let names = List.map (fun h -> h.Ndntype.hf_name) report.Ndntype.hot_functions in
  Alcotest.(check bool)
    "at least ten hot functions on the real tree" true
    (List.length names >= 10);
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is annotated hot" expected)
        true (List.mem expected names))
    [
      "find_exact"; "pop_min_elt"; "replace_min"; "min_elt_writing_time"; "run";
      "expire"; "touch"; "process_block"; "find"; "sweep_pit";
      "longest_prefix_value"; "has_longer"; "probe"; "cancel"; "send_data_except";
      "relay_nack"; "first_hop_except"; "remove_writing_time"; "sift_up"; "sift_down";
      "add_reading_time"; "claim_handle";
    ]

(* Merged-universe staleness: with both passes' findings in hand, every
   pragma and allowlist entry in the shipped tree — typed rules and
   "all" tokens included — must still suppress something. *)
let test_merged_stale_clean () =
  let typed = run_exn real_tree_cfg in
  let syntactic_cfg =
    Ndnlint.config ~root:".."
      ~allowlist_file:"tools/ndnlint/allowlist.txt"
      ~registry_file:"lib/sim/trace_kinds.txt" ()
  in
  match Ndnlint.lint_full syntactic_cfg with
  | Error msg -> Alcotest.failf "ndnlint error: %s" msg
  | Ok (syntactic, inventory) ->
    let merged = Ndnlint.sort_findings (typed.Ndntype.findings @ syntactic) in
    let all_rule_ids = List.map (fun r -> r.Ndnlint.id) Ndnlint.all_rules in
    Alcotest.(check (list string))
      "no stale suppressions over the merged universe" []
      (List.map Ndnlint.finding_to_text
         (Ndnlint.stale_findings ~checked_rules:all_rule_ids inventory merged))

(* The static checker complements the dynamic ceiling, it does not
   replace it: the benched alloc/op bound on the traced CS hit path
   must not have been loosened to make the hot paths "pass". *)
let test_bench_ceiling_unchanged () =
  let json =
    In_channel.with_open_bin "../BENCH_core.json" In_channel.input_all
  in
  let key = {|"cs_hit_alloc_ceiling":|} in
  let rec find i =
    if i + String.length key > String.length json then
      Alcotest.fail "cs_hit_alloc_ceiling missing from BENCH_core.json"
    else if String.sub json i (String.length key) = key then i
    else find (i + 1)
  in
  let start = find 0 + String.length key in
  let stop = String.index_from json start ',' in
  let value = float_of_string (String.trim (String.sub json start (stop - start))) in
  Alcotest.(check bool)
    (Printf.sprintf "ceiling %.6f is at most 0.01" value)
    true (value <= 0.01)

let () =
  Alcotest.run "ndntype"
    [
      ( "planted",
        [
          Alcotest.test_case "golden typed jsonl" `Quick test_golden_jsonl;
          Alcotest.test_case "R1 planted race" `Quick test_planted_race;
          Alcotest.test_case "A1/A2 planted boxing" `Quick test_planted_boxing;
          Alcotest.test_case "G1 use-after-split" `Quick test_rng_misuse;
        ] );
      ( "real-tree",
        [
          Alcotest.test_case "typed rules pass" `Quick test_real_tree_passes;
          Alcotest.test_case "hot-path inventory" `Quick test_hot_inventory;
          Alcotest.test_case "merged universe has no stale suppression" `Quick
            test_merged_stale_clean;
          Alcotest.test_case "bench alloc ceiling unchanged" `Quick
            test_bench_ceiling_unchanged;
        ] );
    ]
