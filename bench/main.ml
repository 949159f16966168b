(* Benchmark harness: regenerates every figure and in-text claim of the
   paper's evaluation, checks the theorems against ground truth, and
   runs the allocation-ceiling suite.

     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- fig3         # one experiment family
     dune exec bench/main.exe -- fig5 --full  # paper-scale trace (3.2M)
     dune exec bench/main.exe -- all --fast   # quick smoke pass
     dune exec bench/main.exe -- fig5 --jobs 4  # fan trials over 4 domains
     dune exec bench/main.exe -- fig3 --trace fig3.jsonl  # export a trace

   --jobs N sets the Sim.Parallel domain-pool size (default: one per
   hardware thread).  Output is bit-identical for any N — trial RNGs
   are split before dispatch and results merge in trial order.

   --trace FILE [--trace-format jsonl|binary] records the fig3 campaigns'
   structured event traces (merged in run order, so also bit-identical
   for any --jobs) to FILE.

   Experiment index (see DESIGN.md for the full mapping):
     fig3  - Figure 3(a-d): timing-attack RTT distributions
     fig4  - Figure 4(a,b): closed-form utility comparison
     fig5  - Figure 5(a,b): trace-driven cache-hit rates
     text  - in-text claims (amplification, scope probe, naive leak,
             correlation/grouping)
     thms  - Theorems VI.1-VI.4 vs exact enumeration / Monte-Carlo
     ablation - design-choice ablations
     chaos - attack accuracy and cache utility under router churn
     core  - allocation ceilings and layer micro-costs (Sim.Bench);
             merges the "core" section into BENCH_core.json and exits
             non-zero on a ceiling breach (--quick for the CI smoke)
     scale - opt-in (not in "all"): cache-privacy sweep on a generated
             ISP hierarchy (11k routers / 1M aggregate users; --quick
             for a 211-router smoke) driven by Workload.Aggregate;
             writes BENCH_scale_tiers.csv and the "bench_scale" section
             of BENCH_core.json.  --shards K adds a per-shard-count
             events/sec sweep (with wall-clock speedup vs one shard)
     overload - opt-in (not in "all"): interest-flooding sweep on the
             same generated hierarchy with the robust plane armed
             (finite PITs, NACKs, bounded link queues): flood
             intensity x admission policy x queue depth; writes the
             "overload" section of BENCH_core.json (--quick for the
             smoke variant)

   BENCH_core.json is one ledger: each writer merges its own section,
   stamped with git rev, host domains and argv, and leaves the others
   byte for byte (ledger.ml). *)

open Cmdliner

let families =
  [ "all"; "fig3"; "fig4"; "fig5"; "text"; "thms"; "ablation"; "chaos"; "core"; "scale"; "overload" ]

let run selected full fast quick jobs shards trace_file trace_format =
  let selected = if selected = [] then [ "all" ] else selected in
  let scale = if full then 4 else if fast then 1 else 2 in
  (* fig5 cost is dominated by trace length: 100k requests per unit.
     --full matches the paper's 3.2M requests. *)
  let fig5_scale = if full then 32 else if fast then 1 else 3 in
  let jobs = Option.value jobs ~default:(Sim.Parallel.default_jobs ()) in
  let trace = Option.map (fun file -> (file, trace_format)) trace_file in
  let want name = List.mem "all" selected || List.mem name selected in
  if want "fig3" then Bench_fig3.run ~scale ~jobs ?trace ();
  if want "fig4" then Bench_fig4.run ();
  if want "fig5" then Bench_fig5.run ~scale:fig5_scale ~jobs ();
  if want "text" then Bench_text.run ~scale ();
  if want "thms" then Bench_thms.run ~scale ~jobs ();
  if want "ablation" then Bench_ablation.run ~scale ~jobs ();
  if want "chaos" then Bench_chaos.run ~scale ~jobs ();
  if want "core" then Bench_core.run ~quick ();
  (* scale and overload are opt-in (not part of "all"): the default
     scale run is an 11k-router, 1M-user sweep, overload a 10-point
     flood sweep over the same hierarchy. *)
  if List.mem "scale" selected then Bench_scale.run ~quick ?shards ();
  if List.mem "overload" selected then Bench_overload.run ~quick ();
  Format.printf "@.done.@."

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let trace_format =
  let parse s =
    match Sim.Trace.format_of_string s with
    | Some fmt -> Ok fmt
    | None -> Error (`Msg (Printf.sprintf "expected jsonl or binary, got %S" s))
  in
  Arg.conv (parse, fun ppf fmt -> Format.pp_print_string ppf (Sim.Trace.format_to_string fmt))

let () =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let opt kind default name docv doc = Arg.(value & opt kind default & info [ name ] ~docv ~doc) in
  let term =
    Term.(
      const run
      $ Arg.(
          value
          & pos_all (enum (List.map (fun f -> (f, f)) families)) []
          & info [] ~docv:"FAMILY" ~doc:"Families to run (default $(b,all)).")
      $ flag "full" "Paper scale."
      $ flag "fast" "Smoke scale."
      $ flag "quick" "Smoke variant of $(b,core), $(b,scale) and $(b,overload)."
      $ opt (Arg.some positive) None "jobs" "N" "Sim.Parallel domain-pool size."
      $ opt (Arg.some positive) None "shards" "K" "Shard-count sweep up to $(docv) for $(b,scale)."
      $ opt Arg.(some string) None "trace" "FILE" "Record the fig3 campaigns' event traces."
      $ opt trace_format Sim.Trace.Jsonl "trace-format" "FMT" "$(b,jsonl) or $(b,binary).")
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "main.exe" ~doc:"Reproduce the paper's evaluation.") term))
