(* ndnsim: command-line interface to the cache-privacy laboratory.

     ndnsim attack   --topology lan --contents 100 --runs 5
     ndnsim defend   --countermeasure specific
     ndnsim trace    --requests 400000 --out trace.txt
     ndnsim replay   --requests 200000 --policy expo --capacity 8000
     ndnsim theorems --k 5 --delta 0.05
     ndnsim probe    --warm /prod/a --target /prod/a
     ndnsim flood    --rate 4 --pit-capacity 256 --admission evict-oldest

   Every experiment of the paper is reachable from here; `bench/main.exe`
   regenerates the figures wholesale. *)

open Cmdliner

(* --- shared argument definitions --- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Deterministic RNG seed.")

let topology_arg =
  let parse = function
    | "lan" -> Ok `Lan
    | "wan" -> Ok `Wan
    | "producer" -> Ok `Producer
    | "local" -> Ok `Local
    | s -> Error (`Msg (Printf.sprintf "unknown topology %S" s))
  in
  let print ppf t =
    Format.pp_print_string ppf
      (match t with `Lan -> "lan" | `Wan -> "wan" | `Producer -> "producer" | `Local -> "local")
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Lan
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:"Measurement topology: $(b,lan), $(b,wan), $(b,producer) or $(b,local).")

let make_setup_of_topology ?shards = function
  | `Lan -> fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ?shards ()
  | `Wan -> fun ~seed ~tracer -> Ndn.Network.wan ~seed ~tracer ?shards ()
  | `Producer ->
    fun ~seed ~tracer -> Ndn.Network.wan_producer ~seed ~tracer ?shards ()
  | `Local -> fun ~seed ~tracer -> Ndn.Network.local_host ~seed ~tracer ?shards ()

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Partition each simulated network across $(docv) engine domains \
           ($(b,Sim.Shard); default 1).  Results, traces and metrics are \
           byte-identical for every $(docv), except that only $(docv) = 1 \
           traces $(b,engine.step) records; combined with $(b,--jobs) the \
           campaign budgets jobs*shards domains and refuses to oversubscribe \
           the host.")

(* --- structured event tracing (--trace / --trace-format) --- *)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the structured simulation event trace (engine steps, \
           Content-Store operations, packet hops, latency draws) to $(docv); \
           $(b,-) streams it to stdout (all diagnostics go to stderr, so \
           a piped trace is never interleaved with warnings).")

let trace_format_arg =
  let parse s =
    match Sim.Trace.format_of_string s with
    | Some fmt -> Ok fmt
    | None -> Error (`Msg (Printf.sprintf "unknown trace format %S" s))
  in
  let print ppf fmt = Format.pp_print_string ppf (Sim.Trace.format_to_string fmt) in
  Arg.(
    value
    & opt (conv (parse, print)) Sim.Trace.Jsonl
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Trace file format: $(b,jsonl) (default) or $(b,binary) (the \
           compact length-prefixed wire format of DESIGN \u{00a7}16); \
           $(b,ndnsim analyze) reads both.")

(* The summary line is a diagnostic, so it goes to stderr: with
   [--trace -] the exported rows own stdout and must never interleave
   with warnings (the S2 lint rule enforces the same split in lib/). *)
let write_trace ~file ~format tracer =
  (match file with
  | "-" ->
    if format = Sim.Trace.Binary then set_binary_mode_out stdout true;
    Sim.Trace.write format stdout tracer;
    flush stdout
  | _ ->
    let oc = open_out_bin file in
    Sim.Trace.write format oc tracer;
    close_out oc);
  Format.eprintf "trace: %d events -> %s (%s)@." (Sim.Trace.length tracer)
    (if file = "-" then "<stdout>" else file)
    (Sim.Trace.format_to_string format)

(* Result lines normally own stdout, but with [--trace -] the streamed
   trace does, so the human-readable output moves to stderr too. *)
let result_formatter trace_file =
  if trace_file = Some "-" then Format.err_formatter else Format.std_formatter

(* --- fault schedules (--faults) --- *)

(* A file option loaded while the command line is read, so a file that
   cannot be read or does not parse is reported as a bad option value,
   naming the file once: the read error already names it, and a parse
   error gets it as a prefix. *)
let file_conv ~parse ~print =
  let load path =
    Result.map_error
      (fun msg -> `Msg msg)
      (Result.bind (Sim.Scan.read_file path) (fun text ->
           Result.map_error (Printf.sprintf "%s: %s" path) (parse text)))
  in
  Arg.conv (load, print)

let faults_arg =
  let print ppf s = Format.fprintf ppf "<%d faults>" (List.length s) in
  Arg.(
    value
    & opt (some (file_conv ~parse:Sim.Fault.parse ~print)) None
    & info [ "faults" ] ~docv:"FILE"
        ~doc:
          "Inject the deterministic fault schedule in $(docv) (one fault \
           per line: TIME KIND ARGS; see $(b,Sim.Fault)) into every \
           simulated network.")

let install_faults_or_die net = function
  | None -> ()
  | Some schedule -> (
    match Ndn.Network.install_faults net schedule with
    | Ok () -> ()
    | Error msg ->
      Format.eprintf "fault schedule: %s@." msg;
      exit 1)

(* Timing_experiment installs the schedule into each run's fresh
   network and rejects unknown targets there; surface that as a clean
   CLI error rather than an uncaught exception. *)
let experiment_or_die f =
  try f ()
  with Invalid_argument msg ->
    Format.eprintf "%s@." msg;
    exit 1

let countermeasure_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ "none" ] -> Ok `None
    | [ "specific" ] -> Ok (`Delay Core.Delay.Content_specific)
    | [ "constant"; gamma ] -> (
      match float_of_string_opt gamma with
      | Some g when g >= 0. -> Ok (`Delay (Core.Delay.Constant g))
      | _ -> Error (`Msg "constant:<gamma-ms> expects a non-negative float"))
    | [ "dynamic" ] ->
      Ok (`Delay (Core.Delay.Dynamic { floor = 2.; half_life_requests = 10. }))
    | [ "uniform"; k; delta ] -> (
      match (int_of_string_opt k, float_of_string_opt delta) with
      | Some k, Some delta when k > 0 && delta > 0. ->
        Ok (`Random (Core.Kdist.uniform_for ~k ~delta))
      | _ -> Error (`Msg "uniform:<k>:<delta>"))
    | [ "expo"; k; eps; delta ] -> (
      match
        (int_of_string_opt k, float_of_string_opt eps, float_of_string_opt delta)
      with
      | Some k, Some eps, Some delta -> (
        match Core.Kdist.exponential_for ~k ~eps ~delta with
        | Some kd -> Ok (`Random kd)
        | None -> Error (`Msg "expo: delta below 1 - alpha^k is infeasible"))
      | _ -> Error (`Msg "expo:<k>:<eps>:<delta>"))
    | _ -> Error (`Msg (Printf.sprintf "unknown countermeasure %S" s))
  in
  let print ppf _ = Format.pp_print_string ppf "<countermeasure>" in
  Arg.(
    value
    & opt (conv (parse, print)) `None
    & info [ "countermeasure" ] ~docv:"CM"
        ~doc:
          "Router countermeasure: $(b,none), $(b,specific), \
           $(b,constant:GAMMA), $(b,dynamic), $(b,uniform:K:DELTA) or \
           $(b,expo:K:EPS:DELTA).")

let attach_countermeasure ?tracer router ~seed = function
  | `None -> ()
  | `Delay policy ->
    ignore
      (Core.Private_router.attach ?tracer router ~rng:(Sim.Rng.create seed)
         (Core.Private_router.Delay_private policy))
  | `Random kdist ->
    ignore
      (Core.Private_router.attach ?tracer router ~rng:(Sim.Rng.create seed)
         (Core.Private_router.Random_cache_mimic
            { kdist; grouping = Core.Grouping.By_namespace 2 }))

(* --- overload plumbing shared by `attack --flood` and `flood` --- *)

let admission_arg =
  let parse s =
    match Ndn.Pit.admission_of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown admission policy %S" s))
  in
  let print ppf a = Format.pp_print_string ppf (Ndn.Pit.admission_to_string a) in
  Arg.(
    value
    & opt (conv (parse, print)) Ndn.Pit.Drop_new
    & info [ "admission" ] ~docv:"POLICY"
        ~doc:
          "PIT admission policy once $(b,--pit-capacity) is set: \
           $(b,drop-new), $(b,evict-oldest) or $(b,per-face-fair).")

let pit_capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pit-capacity" ] ~docv:"N"
        ~doc:
          "Bound the shared router's PIT to $(docv) entries (default: \
           unbounded, the legacy plane).")

(* Arm the robust plane on an existing probe setup and launch the
   flood: NACKs everywhere, optional finite PIT on the shared router,
   and an unsatisfiable producer subnamespace ([prefix/boom] resolves
   to a handler that never answers) that the flooding station hammers
   so every flood interest pins PIT state for its full lifetime. *)
let arm_flood ~setup ~rate ~until ~pit_capacity ~admission ~seed =
  List.iter
    (fun (_, n) -> Ndn.Node.set_nacks_enabled n true)
    (Ndn.Network.nodes setup.Ndn.Network.net);
  (match pit_capacity with
  | Some c ->
    Ndn.Node.set_pit_limits setup.Ndn.Network.router ~capacity:c ~admission ()
  | None -> ());
  let boom = Ndn.Name.append setup.Ndn.Network.prefix "boom" in
  Ndn.Node.add_producer setup.Ndn.Network.producer_host ~prefix:boom (fun _ ->
      None);
  Workload.Flood.attach
    {
      Workload.Flood.rate_per_ms = rate;
      scope = None;
      timeout_ms = Some 2000.;
    }
    ~node:setup.Ndn.Network.adversary ~prefix:boom
    ~rng:(Sim.Rng.create (seed + 0xF100d))
    ~until ()

(* --- attack: the Figure 3 measurement campaign --- *)

let attack_cmd =
  let run topology contents runs seed jobs shards trace_file trace_format faults
      flood flood_until pit_capacity admission =
    let base_make = make_setup_of_topology ?shards topology in
    let make_setup ~seed ~tracer =
      let setup = base_make ~seed ~tracer in
      (match flood with
      | None -> ()
      | Some rate ->
        ignore
          (arm_flood ~setup ~rate ~until:flood_until ~pit_capacity ~admission
             ~seed));
      setup
    in
    let result =
      experiment_or_die (fun () ->
          Attack.Timing_experiment.run ~make_setup
            ~contents ~runs ~seed ?jobs ?shards
            ?faults
            ~trace:(trace_file <> None) ())
    in
    Attack.Timing_experiment.pp_result (result_formatter trace_file) result;
    match trace_file with
    | Some file ->
      write_trace ~file ~format:trace_format result.Attack.Timing_experiment.trace
    | None -> ()
  in
  let contents =
    Arg.(value & opt int 100 & info [ "contents" ] ~docv:"N" ~doc:"Contents per run.")
  in
  let runs =
    Arg.(value & opt int 5 & info [ "runs" ] ~docv:"N" ~doc:"Independent runs (fresh caches).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Fan runs over $(docv) domains (default: one per hardware \
             thread).  Results and traces are identical for any value.")
  in
  let flood =
    Arg.(
      value
      & opt (some float) None
      & info [ "flood" ] ~docv:"RATE"
          ~doc:
            "Run the campaign under an interest flood: the adversary \
             station also injects $(docv) unsatisfiable interests per \
             virtual millisecond ($(b,Workload.Flood)), with NACKs enabled \
             network-wide.  Results stay byte-identical across \
             $(b,--jobs)/$(b,--shards).")
  in
  let flood_until =
    Arg.(
      value
      & opt float 2000.
      & info [ "flood-until" ] ~docv:"MS"
          ~doc:"Stop flood injection at this virtual time (per run).")
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Run the cache timing attack and report hit/miss RTT histograms.")
    Term.(
      const run $ topology_arg $ contents $ runs $ seed_arg $ jobs $ shards_arg
      $ trace_file_arg $ trace_format_arg $ faults_arg $ flood $ flood_until
      $ pit_capacity_arg $ admission_arg)

(* --- defend: attack vs countermeasure --- *)

let defend_cmd =
  let run topology cm contents runs seed jobs shards trace_file trace_format
      faults =
    let base_make = make_setup_of_topology ?shards topology in
    (* The defended variant marks all content producer-private so the
       countermeasure engages. *)
    let private_producer =
      { Ndn.Network.default_producer_config with producer_private = true }
    in
    let producer_make ~seed ~tracer =
      let setup =
        match topology with
        | `Lan ->
          Ndn.Network.lan ~seed ~tracer ?shards ~producer:private_producer ()
        | `Wan ->
          Ndn.Network.wan ~seed ~tracer ?shards ~producer:private_producer ()
        | `Producer ->
          Ndn.Network.wan_producer ~seed ~tracer ?shards
            ~producer:private_producer ()
        | `Local ->
          Ndn.Network.local_host ~seed ~tracer ?shards
            ~producer:private_producer ()
      in
      (* The router's own tracer, not the campaign tracer: the
         countermeasure's records must flow through the router's shard
         buffer to be stitched deterministically. *)
      attach_countermeasure
        ~tracer:(Ndn.Node.tracer setup.Ndn.Network.router)
        setup.Ndn.Network.router ~seed:(seed + 10_000) cm;
      setup
    in
    let trace = trace_file <> None in
    let baseline =
      experiment_or_die (fun () ->
          Attack.Timing_experiment.run ~make_setup:base_make ~contents ~runs
            ~seed ?jobs ?shards ?faults ~trace ())
    in
    let defended =
      experiment_or_die (fun () ->
          Attack.Timing_experiment.run ~make_setup:producer_make ~contents
            ~runs ~seed ?jobs ?shards ?faults ~trace ())
    in
    Format.printf "undefended distinguisher: %.2f%%@."
      (100. *. baseline.Attack.Timing_experiment.success_rate);
    Format.printf "defended distinguisher:   %.2f%%@."
      (100. *. defended.Attack.Timing_experiment.success_rate);
    match trace_file with
    | Some file ->
      (* Baseline campaign first, then the defended one. *)
      let merged = Sim.Trace.create () in
      Sim.Trace.merge_into ~into:merged baseline.Attack.Timing_experiment.trace;
      Sim.Trace.merge_into ~into:merged defended.Attack.Timing_experiment.trace;
      write_trace ~file ~format:trace_format merged
    | None -> ()
  in
  let contents =
    Arg.(value & opt int 60 & info [ "contents" ] ~docv:"N" ~doc:"Contents per run.")
  in
  let runs = Arg.(value & opt int 3 & info [ "runs" ] ~docv:"N" ~doc:"Runs.") in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Fan runs over $(docv) domains (default: one per hardware \
             thread).  Results and traces are identical for any value.")
  in
  Cmd.v
    (Cmd.info "defend"
       ~doc:"Measure distinguisher accuracy with and without a countermeasure.")
    Term.(
      const run $ topology_arg $ countermeasure_arg $ contents $ runs $ seed_arg
      $ jobs $ shards_arg $ trace_file_arg $ trace_format_arg $ faults_arg)

(* --- trace generation --- *)

let trace_cmd =
  let run requests users out seed =
    let cfg =
      { Workload.Ircache.default with Workload.Ircache.requests; users; seed }
    in
    let trace = Workload.Ircache.generate cfg in
    Format.printf "%a@." Workload.Trace.pp_summary trace;
    match out with
    | Some path ->
      Workload.Trace.save trace ~path;
      Format.printf "saved to %s@." path
    | None -> ()
  in
  let requests =
    Arg.(value & opt int 400_000 & info [ "requests" ] ~docv:"N" ~doc:"Request count.")
  in
  let users = Arg.(value & opt int 185 & info [ "users" ] ~docv:"N" ~doc:"User count.") in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Save to file.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Generate the synthetic IRCache-like workload.")
    Term.(const run $ requests $ users $ out $ seed_arg)

(* --- replay --- *)

let replay_cmd =
  let run trace_file squid_file requests policy capacity private_frac k eps delta
      seed =
    let trace =
      match (trace_file, squid_file) with
      | Some trace, _ -> trace
      | None, Some (trace, stats) ->
        Format.eprintf "squid log: %d lines parsed, %d skipped@."
          stats.Workload.Squid_log.parsed stats.Workload.Squid_log.skipped;
        trace
      | None, None ->
        Workload.Ircache.generate
          { Workload.Ircache.default with Workload.Ircache.requests; seed }
    in
    Format.printf "workload: %a@." Workload.Trace.pp_summary trace;
    let kind =
      match policy with
      | "none" -> Core.Policy.No_privacy
      | "always" -> Core.Policy.Always_delay
      | "uniform" -> Core.Policy.Random_cache (Core.Kdist.uniform_for ~k ~delta)
      | "expo" -> (
        match Core.Kdist.exponential_for ~k ~eps ~delta with
        | Some kd -> Core.Policy.Random_cache kd
        | None -> failwith "expo parameters infeasible (delta < 1 - alpha^k)")
      | s -> failwith (Printf.sprintf "unknown policy %S" s)
    in
    let outcome =
      Workload.Replay.replay trace
        {
          Workload.Replay.default_config with
          Workload.Replay.cache_capacity = capacity;
          policy = kind;
          private_mode = Workload.Replay.Per_content private_frac;
          seed;
        }
    in
    Format.printf "%a@." Workload.Replay.pp_outcome outcome
  in
  let print_trace ppf t = Format.fprintf ppf "<%d requests>" (Workload.Trace.length t) in
  let trace_file =
    Arg.(
      value
      & opt (some (file_conv ~parse:Workload.Trace.parse ~print:print_trace)) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"Load a saved trace.")
  in
  let squid_file =
    Arg.(
      value
      & opt
          (some
             (file_conv
                ~parse:(fun text ->
                  Ok (Workload.Squid_log.of_lines (String.split_on_char '\n' text)))
                ~print:(fun ppf (t, _) -> print_trace ppf t)))
          None
      & info [ "squid" ] ~docv:"FILE"
          ~doc:"Load a Squid access.log (the IRCache trace format).")
  in
  let requests =
    Arg.(value & opt int 200_000 & info [ "requests" ] ~docv:"N" ~doc:"Synthetic trace size.")
  in
  let policy =
    Arg.(
      value
      & opt string "none"
      & info [ "policy" ] ~docv:"P"
          ~doc:"Cache policy: $(b,none), $(b,always), $(b,uniform) or $(b,expo).")
  in
  let capacity =
    Arg.(value & opt int 8000 & info [ "capacity" ] ~docv:"N" ~doc:"Cache entries; 0 = unbounded.")
  in
  let private_frac =
    Arg.(value & opt float 0.2 & info [ "private-frac" ] ~docv:"F" ~doc:"Private content fraction.")
  in
  let k = Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"Anonymity parameter k.") in
  let eps = Arg.(value & opt float 0.005 & info [ "eps" ] ~docv:"E" ~doc:"Privacy eps (expo).") in
  let delta = Arg.(value & opt float 0.05 & info [ "delta" ] ~docv:"D" ~doc:"Privacy delta.") in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a workload through a privacy-aware cache.")
    Term.(
      const run $ trace_file $ squid_file $ requests $ policy $ capacity
      $ private_frac $ k $ eps $ delta $ seed_arg)

(* --- theorems --- *)

let theorems_cmd =
  let run k delta eps =
    let domain = Privacy.Theorems.Uniform.domain_for_delta ~k ~delta in
    Format.printf "Uniform-Random-Cache: K = %d gives (%d, 0, %.4f)-privacy@." domain
      k
      (Privacy.Theorems.Uniform.delta ~k ~domain);
    Format.printf "  exact achieved delta: %.5f@."
      (Privacy.Outputs.achieved_delta
         ~k_dist:(Privacy.Theorems.Uniform.k_dist ~domain)
         ~k ~probes:(domain + k) ~eps:0.);
    let alpha = Privacy.Theorems.Exponential.alpha_for_epsilon ~k ~eps in
    match Privacy.Theorems.Exponential.domain_for_delta ~k ~alpha ~delta with
    | Some domain_e ->
      Format.printf
        "Exponential-Random-Cache: alpha = %.5f, K = %d gives (%d, %.4f, %.4f)-privacy@."
        alpha domain_e k eps
        (Privacy.Theorems.Exponential.delta ~k ~alpha ~domain:domain_e);
      Format.printf "  exact achieved delta: %.5f@."
        (Privacy.Outputs.achieved_delta
           ~k_dist:(Privacy.Theorems.Exponential.k_dist ~alpha ~domain:domain_e)
           ~k
           ~probes:(domain_e + k)
           ~eps);
      List.iter
        (fun c ->
          Format.printf "  u(%3d): uniform %.4f  expo %.4f@." c
            (Privacy.Theorems.Uniform.utility_exact ~c ~domain)
            (Privacy.Theorems.Exponential.utility_exact ~c ~alpha ~domain:domain_e))
        [ 1; 10; 50; 100 ]
    | None ->
      Format.printf
        "Exponential-Random-Cache: infeasible (delta %.4f < 1 - alpha^k = %.4f)@."
        delta
        (Privacy.Theorems.Exponential.delta_limit ~k ~alpha)
  in
  let k = Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"Anonymity parameter.") in
  let delta = Arg.(value & opt float 0.05 & info [ "delta" ] ~docv:"D" ~doc:"Target delta.") in
  let eps = Arg.(value & opt float 0.05 & info [ "eps" ] ~docv:"E" ~doc:"Target eps.") in
  Cmd.v
    (Cmd.info "theorems" ~doc:"Solve scheme parameters and verify the privacy theorems.")
    Term.(const run $ k $ delta $ eps)

(* --- leak: Bayesian leakage quantification --- *)

let leak_cmd =
  let run k delta max_count =
    let domain = Privacy.Theorems.Uniform.domain_for_delta ~k ~delta in
    let probes = domain + max_count + 2 in
    Format.printf
      "hidden request count uniform on 0..%d (%.3f bits); adversary probes %d times@."
      max_count
      (Privacy.Bayes.entropy (Privacy.Dist.uniform_int (max_count + 1)))
      probes;
    List.iter
      (fun (label, kdist) ->
        Format.printf "%-34s leaks %.3f bits@." label
          (Attack.Popularity_attack.information_leak_bits ~kdist ~max_count ~probes))
      [
        (Printf.sprintf "naive threshold k=%d" k, Core.Kdist.Constant k);
        ( Printf.sprintf "Uniform-Random-Cache K=%d" domain,
          Core.Kdist.Uniform domain );
        ( Printf.sprintf "Expo-Random-Cache a=.97 K=%d" domain,
          Core.Kdist.Truncated_geometric { alpha = 0.97; domain } );
      ]
  in
  let k = Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"Anonymity parameter.") in
  let delta = Arg.(value & opt float 0.05 & info [ "delta" ] ~docv:"D" ~doc:"Privacy delta.") in
  let max_count =
    Arg.(value & opt int 10 & info [ "max-count" ] ~docv:"N" ~doc:"Largest hidden count considered.")
  in
  Cmd.v
    (Cmd.info "leak"
       ~doc:"Quantify information leakage (bits) of cache schemes via Bayesian inference.")
    Term.(const run $ k $ delta $ max_count)

(* --- interact: conversation-detection experiment --- *)

let interact_cmd =
  let run unpredictable trials frames seed =
    let naming =
      if unpredictable then Core.Interactive_session.Unpredictable "dh-secret"
      else Core.Interactive_session.Predictable
    in
    let r = Attack.Interaction_attack.run ~naming ~trials ~frames ~seed () in
    Format.printf
      "conversation detection (%s names): accuracy %.2f, %d false positives, %d false negatives over %d trials@."
      (if unpredictable then "unpredictable" else "predictable")
      r.Attack.Interaction_attack.accuracy
      r.Attack.Interaction_attack.false_positives
      r.Attack.Interaction_attack.false_negatives r.Attack.Interaction_attack.trials
  in
  let unpredictable =
    Arg.(value & flag & info [ "unpredictable" ] ~doc:"Protect the session with HMAC-derived names.")
  in
  let trials = Arg.(value & opt int 16 & info [ "trials" ] ~docv:"N" ~doc:"Trials.") in
  let frames = Arg.(value & opt int 12 & info [ "frames" ] ~docv:"N" ~doc:"Frames per call.") in
  Cmd.v
    (Cmd.info "interact"
       ~doc:"Detect two-way interactive communication through the shared router.")
    Term.(const run $ unpredictable $ trials $ frames $ seed_arg)

(* --- probe: one-off interactive probing --- *)

let probe_cmd =
  let run topology warm target scope seed shards trace_file trace_format faults
      =
    let tracer =
      if trace_file <> None then Sim.Trace.create () else Sim.Trace.disabled
    in
    let setup = (make_setup_of_topology ?shards topology) ~seed ~tracer in
    let out = result_formatter trace_file in
    install_faults_or_die setup.Ndn.Network.net faults;
    List.iter
      (fun w ->
        ignore
          (Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.user
             (Ndn.Name.of_string w));
        Format.fprintf out "warmed %s (via honest user U)@." w)
      warm;
    let name = Ndn.Name.of_string target in
    (match
       Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.adversary
         ?scope ~timeout_ms:1000. name
     with
    | Some rtt -> Format.fprintf out "probe %s -> %.3f ms@." target rtt
    | None -> Format.fprintf out "probe %s -> timeout@." target);
    match trace_file with
    | Some file -> write_trace ~file ~format:trace_format tracer
    | None -> ()
  in
  let warm =
    Arg.(
      value & opt_all string []
      & info [ "warm" ] ~docv:"NAME" ~doc:"Content the honest user fetches first (repeatable).")
  in
  let target =
    Arg.(value & opt string "/prod/x" & info [ "target" ] ~docv:"NAME" ~doc:"Name to probe.")
  in
  let scope =
    Arg.(value & opt (some int) None & info [ "scope" ] ~docv:"N" ~doc:"Interest scope field.")
  in
  Cmd.v
    (Cmd.info "probe" ~doc:"Issue a single adversarial probe in a chosen topology.")
    Term.(
      const run $ topology_arg $ warm $ target $ scope $ seed_arg $ shards_arg
      $ trace_file_arg $ trace_format_arg $ faults_arg)

(* --- topo: run probes in a user-defined topology --- *)

let topo_cmd =
  let run file generate warm_node warm probe_node target scope seed trace_file
      trace_format faults =
    let tracer =
      if trace_file <> None then Sim.Trace.create () else Sim.Trace.disabled
    in
    let parsed =
      match (file, generate) with
      | Some _, Some _ ->
        Format.eprintf "--file and --generate are mutually exclusive@.";
        exit 1
      | Some file, None ->
        Ndn.Topology_spec.parse_file ~seed ~tracer ~path:file ()
      | None, Some directive ->
        let text = "generate " ^ directive ^ "\n" in
        Result.bind (Ndn.Topology_spec.parse_spec text) (fun spec ->
            (* Surface the generated graph before building: canonical
               directive plus its structural summary. *)
            List.iter
              (function
                | _, (Ndn.Topology_spec.Generate_decl d as dir) ->
                  let g = Ndn.Topology_spec.Gen.graph_of d in
                  Format.printf "%s@."
                    (Ndn.Topology_spec.print [ (1, dir) ] |> String.trim);
                  Format.printf
                    "generated: %d routers, %d links, diameter %d, root %s, \
                     producer %s, hop limit %d, pit lifetime %.0f ms@."
                    g.Ndn.Topology_spec.Gen.node_count
                    (List.length g.Ndn.Topology_spec.Gen.edges)
                    g.Ndn.Topology_spec.Gen.diameter
                    (Ndn.Topology_spec.Gen.node_label d g
                       g.Ndn.Topology_spec.Gen.root)
                    (Ndn.Topology_spec.Gen.producer_label d)
                    (Ndn.Topology_spec.Gen.hop_limit g)
                    (Ndn.Topology_spec.Gen.interest_lifetime_ms d g)
                | _ -> ())
              spec;
            Ndn.Topology_spec.build ~seed ~tracer spec)
      | None, None ->
        Format.eprintf "one of --file or --generate is required@.";
        exit 1
    in
    match parsed with
    | Error msg ->
      Format.eprintf "%s@." msg;
      exit 1
    | Ok topo ->
      let out = result_formatter trace_file in
      install_faults_or_die topo.Ndn.Topology_spec.network faults;
      let names = List.map fst topo.Ndn.Topology_spec.nodes in
      let shown =
        let n = List.length names in
        if n <= 16 then String.concat ", " names
        else
          String.concat ", " (List.filteri (fun i _ -> i < 16) names)
          ^ Printf.sprintf ", … %d more" (n - 16)
      in
      Format.fprintf out "topology: %d nodes (%s)@."
        (List.length topo.Ndn.Topology_spec.nodes)
        shown;
      let resolve label =
        match List.assoc_opt label topo.Ndn.Topology_spec.nodes with
        | Some node -> node
        | None ->
          Format.eprintf "no node %S in the topology@." label;
          exit 1
      in
      List.iter
        (fun w ->
          match
            Ndn.Network.fetch_rtt topo.Ndn.Topology_spec.network
              ~from:(resolve warm_node) (Ndn.Name.of_string w)
          with
          | Some rtt -> Format.fprintf out "%s fetched %s: %.3f ms@." warm_node w rtt
          | None -> Format.fprintf out "%s fetch of %s timed out@." warm_node w)
        warm;
      (match target with
      | Some t -> (
        match
          Ndn.Network.fetch_rtt topo.Ndn.Topology_spec.network
            ~from:(resolve probe_node) ?scope ~timeout_ms:1000.
            (Ndn.Name.of_string t)
        with
        | Some rtt -> Format.fprintf out "%s probes %s: %.3f ms@." probe_node t rtt
        | None -> Format.fprintf out "%s probes %s: timeout@." probe_node t)
      | None -> ());
      (match trace_file with
      | Some file -> write_trace ~file ~format:trace_format tracer
      | None -> ())
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE" ~doc:"Topology specification file.")
  in
  let generate =
    Arg.(
      value
      & opt (some string) None
      & info [ "generate" ] ~docv:"DIRECTIVE"
          ~doc:
            "Generate the topology instead of reading a file: the body of a \
             generate directive, e.g. 'tree name=isp arity=10 tiers=5' or \
             'ws name=sw n=200 k=6 beta=0.2'.  Prints the canonical \
             directive and the graph summary, then runs warm fetches and \
             the probe as with --file.")
  in
  let warm_node =
    Arg.(value & opt string "U" & info [ "warm-node" ] ~docv:"NODE" ~doc:"Node issuing warm fetches.")
  in
  let warm =
    Arg.(value & opt_all string [] & info [ "warm" ] ~docv:"NAME" ~doc:"Content to pre-fetch (repeatable).")
  in
  let probe_node =
    Arg.(value & opt string "Adv" & info [ "probe-node" ] ~docv:"NODE" ~doc:"Node issuing the probe.")
  in
  let target =
    Arg.(value & opt (some string) None & info [ "target" ] ~docv:"NAME" ~doc:"Name to probe.")
  in
  let scope =
    Arg.(value & opt (some int) None & info [ "scope" ] ~docv:"N" ~doc:"Probe scope field.")
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:
         "Run fetches and probes in a topology defined in a spec file or \
          generated on the fly (--generate).")
    Term.(
      const run $ file $ generate $ warm_node $ warm $ probe_node $ target
      $ scope $ seed_arg $ trace_file_arg $ trace_format_arg $ faults_arg)

(* --- flood: graceful degradation under interest flooding --- *)

let flood_cmd =
  let run topology rate duration pit_capacity admission queue_rate queue_depth
      fetches seed shards trace_file trace_format faults =
    let tracer =
      if trace_file <> None then Sim.Trace.create () else Sim.Trace.disabled
    in
    let setup = (make_setup_of_topology ?shards topology) ~seed ~tracer in
    let net = setup.Ndn.Network.net in
    let out = result_formatter trace_file in
    install_faults_or_die net faults;
    (match queue_rate with
    | None -> ()
    | Some mbps ->
      let a = Ndn.Node.label setup.Ndn.Network.router
      and b = Ndn.Node.label setup.Ndn.Network.producer_host in
      (match
         Ndn.Network.set_link_queue net ~a ~b ~rate_mbps:mbps
           ~depth:queue_depth ()
       with
      | Ok () ->
        Format.fprintf out "queue: %s<->%s at %.2f Mbps, depth %d@." a b mbps
          queue_depth
      | Error msg ->
        Format.eprintf "--queue-rate: %s@." msg;
        exit 1));
    let fl =
      arm_flood ~setup ~rate ~until:duration ~pit_capacity ~admission ~seed
    in
    (* Honest cohort: backoff-armed fetches from U spread across the
       flood window, measuring what the robust plane salvages. *)
    let completed = ref 0
    and give_ups = ref 0
    and honest_nacks = ref 0
    and latency_sum = ref 0. in
    let backoff =
      Ndn.Consumer.backoff ~jitter:0.2 (Sim.Rng.create (seed + 0xBac0))
    in
    let user = setup.Ndn.Network.user in
    let step = duration /. float_of_int (max 1 fetches) in
    for i = 1 to fetches do
      let name =
        Ndn.Name.append setup.Ndn.Network.prefix
          (Printf.sprintf "flood-honest-%d" i)
      in
      Ndn.Node.schedule_app_at user
        ~time:(step *. float_of_int i)
        (fun () ->
          Ndn.Consumer.fetch user ~max_retries:3 ~backoff
            ~on_done:(fun o ->
              incr completed;
              honest_nacks := !honest_nacks + o.Ndn.Consumer.nacks;
              match o.Ndn.Consumer.data with
              | None -> incr give_ups
              | Some _ -> latency_sum := !latency_sum +. o.Ndn.Consumer.elapsed_ms)
            name)
    done;
    Ndn.Network.run net;
    Format.fprintf out
      "flood: %.2f interests/ms for %.0f ms -> %d issued, %d NACKed, %d \
       timed out@."
      rate duration
      (Workload.Flood.interests_issued fl)
      (Workload.Flood.nacks_received fl)
      (Workload.Flood.timeouts fl);
    let pit = Ndn.Node.pit setup.Ndn.Network.router in
    (match pit_capacity with
    | Some c ->
      Format.fprintf out
        "router PIT: capacity %d (%s), %d rejections, %d evictions@." c
        (Ndn.Pit.admission_to_string admission)
        (Ndn.Pit.rejections pit) (Ndn.Pit.evictions pit)
    | None ->
      Format.fprintf out "router PIT: unbounded, peak-free legacy plane@.");
    let delivered = !completed - !give_ups in
    Format.fprintf out
      "honest: %d/%d fetches delivered (%d gave up), %d NACK fast-failures, \
       mean latency %.2f ms@."
      delivered !completed !give_ups !honest_nacks
      (if delivered = 0 then 0. else !latency_sum /. float_of_int delivered);
    match trace_file with
    | Some file -> write_trace ~file ~format:trace_format tracer
    | None -> ()
  in
  let rate =
    Arg.(
      value & opt float 1.0
      & info [ "rate" ] ~docv:"R"
          ~doc:"Flood intensity: unsatisfiable interests per virtual ms.")
  in
  let duration =
    Arg.(
      value & opt float 2000.
      & info [ "duration" ] ~docv:"MS" ~doc:"Flood window in virtual ms.")
  in
  let queue_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "queue-rate" ] ~docv:"MBPS"
          ~doc:
            "Bound the router-producer link with a transmission queue \
             serializing at $(docv) Mbps (default: latency-only legacy \
             links).")
  in
  let queue_depth =
    Arg.(
      value & opt int 32
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Packets the bounded link queue holds before dropping.")
  in
  let fetches =
    Arg.(
      value & opt int 10
      & info [ "fetches" ] ~docv:"N"
          ~doc:"Honest backoff-armed fetches spread across the flood window.")
  in
  Cmd.v
    (Cmd.info "flood"
       ~doc:
         "Flood a measurement topology with unsatisfiable interests \
          (PIT-exhaustion DoS) and report how the robust plane — finite \
          PIT, NACKs, bounded queues, consumer backoff — degrades.")
    Term.(
      const run $ topology_arg $ rate $ duration $ pit_capacity_arg
      $ admission_arg $ queue_rate $ queue_depth $ fetches $ seed_arg
      $ shards_arg $ trace_file_arg $ trace_format_arg $ faults_arg)

(* --- chaos: the attack under router churn --- *)

let chaos_cmd =
  let run topology restart_mean downtime horizon preserve_cs contents runs seed
      jobs shards trace_file trace_format faults =
    let schedule =
      match faults with
      | Some s -> s
      | None ->
        (* The probed cache's host: the shared router R everywhere
           except the local-host topology, where the host's own
           forwarder is probed. *)
        let router = match topology with `Local -> "host" | _ -> "R" in
        Sim.Fault.random_restarts
          ~rng:(Sim.Rng.create (seed + 0x5eed))
          ~nodes:[ router ] ~mean_uptime_ms:restart_mean ~downtime_ms:downtime
          ~horizon_ms:horizon ~preserve_cs ()
    in
    let out = result_formatter trace_file in
    Format.fprintf out "fault schedule (%d events):@.%s" (List.length schedule)
      (Sim.Fault.print schedule);
    let result =
      experiment_or_die (fun () ->
          Attack.Timing_experiment.run
            ~make_setup:(make_setup_of_topology ?shards topology)
            ~contents ~runs ~seed ?jobs ?shards ~faults:schedule
            ~trace:(trace_file <> None) ())
    in
    Attack.Timing_experiment.pp_result out result;
    let fnr = Attack.Timing_experiment.false_negative_rate result in
    if not (Float.is_nan fnr) then
      Format.fprintf out "attacker false-negative rate under churn: %.2f%%@."
        (100. *. fnr);
    match trace_file with
    | Some file ->
      write_trace ~file ~format:trace_format result.Attack.Timing_experiment.trace
    | None -> ()
  in
  let restart_mean =
    Arg.(
      value & opt float 3000.
      & info [ "restart-mean" ] ~docv:"MS"
          ~doc:"Mean router uptime between crashes (exponential).")
  in
  let downtime =
    Arg.(
      value & opt float 300.
      & info [ "downtime" ] ~docv:"MS" ~doc:"Downtime per crash before restart.")
  in
  let horizon =
    Arg.(
      value & opt float 20000.
      & info [ "horizon" ] ~docv:"MS" ~doc:"Crash process horizon per run.")
  in
  let preserve_cs =
    Arg.(
      value & flag
      & info [ "preserve-cs" ]
          ~doc:"Model a persistent Content Store that survives reboots.")
  in
  let contents =
    Arg.(value & opt int 40 & info [ "contents" ] ~docv:"N" ~doc:"Contents per run.")
  in
  let runs =
    Arg.(value & opt int 3 & info [ "runs" ] ~docv:"N" ~doc:"Independent runs.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Fan runs over $(docv) domains (default: one per hardware \
             thread).  Results and traces are identical for any value.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the timing attack under router churn: crash/restart the probed \
          router on a seeded random schedule (or one from $(b,--faults)) and \
          report per-phase distinguisher accuracy and the attacker's \
          false-negative rate.")
    Term.(
      const run $ topology_arg $ restart_mean $ downtime $ horizon
      $ preserve_cs $ contents $ runs $ seed_arg $ jobs $ shards_arg
      $ trace_file_arg $ trace_format_arg $ faults_arg)

let analyze_cmd =
  let run file json =
    let ic =
      if file = "-" then begin
        set_binary_mode_in stdin true;
        stdin
      end
      else
        try open_in_bin file
        with Sys_error msg ->
          Format.eprintf "ndnsim analyze: %s@." msg;
          exit 1
    in
    let result = Sim.Analyze.of_source (Sim.Trace_reader.of_channel ic) in
    if file <> "-" then close_in ic;
    match result with
    | Error e ->
      Format.eprintf "ndnsim analyze: %s: %s@."
        (if file = "-" then "<stdin>" else file)
        (Sim.Scan.error_to_string e);
      exit 1
    | Ok acc ->
      print_string
        (if json then Sim.Analyze.render_json acc else Sim.Analyze.render_text acc)
  in
  let file =
    Arg.(
      value
      & pos 0 string "-"
      & info [] ~docv:"FILE"
          ~doc:
            "Trace file to analyze ($(b,binary) or $(b,jsonl), sniffed from \
             the stream prefix); $(b,-) (the default) reads stdin, so a \
             traced run pipes straight through: $(b,ndnsim attack --trace - \
             --trace-format binary | ndnsim analyze).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the deterministic JSON summary instead of the \
             human-readable one.  Byte-identical across the binary and JSONL \
             pipelines, so CI can diff the two.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Stream a trace through the single-pass analyzers"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Folds a recorded trace through mergeable streaming \
              accumulators in one pass — per-kind event counts, the \
              timing-attack confusion matrix (warm/cold probe hits), \
              per-tier cache hit rates, and link-delay statistics — without \
              ever materializing the trace, so traces far larger than memory \
              analyze in constant space.";
         ])
    Term.(const run $ file $ json)

let () =
  let doc = "NDN cache-privacy laboratory (ICDCS 2013 reproduction)" in
  let info = Cmd.info "ndnsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            attack_cmd;
            defend_cmd;
            trace_cmd;
            replay_cmd;
            theorems_cmd;
            probe_cmd;
            leak_cmd;
            interact_cmd;
            topo_cmd;
            flood_cmd;
            chaos_cmd;
            analyze_cmd;
          ]))
