(* perfbench: the repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload's op back to back in a closed loop (one op at a
   time, one process, one domain) for S seconds and prints, as its last
   stdout line, one JSON object {correct, attempted, failed, metrics}.
   With --trace 0 the metrics are the end-to-end ones:

   - requests_per_s: requests of one op over the op's time, the median
     over the run's ops of its time in kernel units (see measure.ml)
     read as seconds at the reference host speed;
   - setup_s: one build of the op's inputs, timed the same way: the
     median over set-up samples spread through the run, each a batch of
     builds lasting at least 20 ms;
   - peak_heap_mb: Gc top_heap_words, in MB.

   Every op and set-up sample starts after a full major GC and every
   timed sample lasts at least a millisecond.  The line before the
   result is a provenance record (git rev, argv, seed, nproc, OCaml
   version, workload parameters, the raw timings behind the metrics and
   those two invariants) that perfbench/steady.py checks.  With
   --trace 1 the metrics are the per-layer ones (see layers.ml). *)

module W = Workloads
module M = Measure

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type setup = {
  batch : int;
  mutable ratios : float list;  (** Per build, kernel units. *)
}

let setup_target_s = 0.02

let setup_sample (w : W.t) ~seed st =
  let _, r, () =
    M.paired (fun () ->
        for _ = 1 to st.batch do
          w.W.setup ~seed
        done)
  in
  st.ratios <- (r /. float_of_int st.batch) :: st.ratios

let setup_init (w : W.t) ~seed =
  (* One untimed-for-metrics build sizes the batch. *)
  ignore (M.gc ());
  let t0 = M.now_ns () in
  w.W.setup ~seed;
  let one = M.since_s t0 in
  let batch = max 1 (int_of_float (Float.ceil (setup_target_s /. Float.max one 1e-6))) in
  let st = { batch; ratios = [] } in
  for _ = 1 to 5 do
    setup_sample w ~seed st
  done;
  st

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

type measured = {
  ratio : float;  (** Median op time, kernel units. *)
  raw_s : float list;  (** Every op's time, seconds. *)
  digest : W.digest;
  attempted : int;
  failed : int;
  failures : string list;
}

let min_ops = 5
let setup_every_s = 0.5

let measure (w : W.t) ~seed ~seconds st =
  let ratios = ref [] and raw = ref [] in
  let digest = ref None in
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  let t_start = M.now_ns () in
  let last_setup = ref (M.now_ns ()) in
  while !attempted < min_ops || M.since_s t_start < seconds do
    if M.since_s !last_setup >= setup_every_s then begin
      setup_sample w ~seed st;
      last_setup := M.now_ns ()
    end;
    let op = w.W.make ~seed ~tracer:(fun () -> Sim.Trace.disabled) in
    let s, r, () = M.paired op.W.run in
    ratios := r :: !ratios;
    raw := s :: !raw;
    let d, bad = op.W.finish () in
    incr attempted;
    let bad =
      match !digest with
      | None ->
        digest := Some d;
        bad
      | Some d0 when d0 = d -> bad
      | Some d0 ->
        Printf.sprintf "op digest %s differs from the first op's %s" (W.digest_to_string d)
          (W.digest_to_string d0)
        :: bad
    in
    if bad <> [] then begin
      incr failed;
      if List.length !failures < 8 then failures := !failures @ bad
    end
  done;
  {
    ratio = M.median !ratios;
    raw_s = !raw;
    digest = Option.get !digest;
    attempted = !attempted;
    failed = !failed;
    failures = !failures;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
let json_list l = "[" ^ String.concat ", " l ^ "]"

let env name = Option.value (Sys.getenv_opt name) ~default:"unknown"

let print_provenance (w : W.t) ~seed ~seconds ~trace ~(m : measured) ~(st : setup) ~notes =
  let fields =
    [
      ("git_rev", json_string (env "PERFBENCH_GIT_REV"));
      ("source_sha256", json_string (env "PERFBENCH_SOURCE_SHA256"));
      ("argv", json_list (List.map json_string (Array.to_list Sys.argv)));
      ("seed", string_of_int seed);
      ("seconds", json_float seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("workload", json_string w.W.name);
      ("params", json_obj (List.map (fun (k, v) -> (k, json_string v)) w.W.params));
      ("digest", json_string (W.digest_to_string m.digest));
      ("ops", string_of_int m.attempted);
      ( "timing",
        json_obj
          [
            ("kernel_ref_s", json_float M.kernel_ref_s);
            ("kernel_min_s", json_float (List.fold_left Float.min Float.infinity !M.kernel_times));
            ("kernel_median_s", json_float (M.median !M.kernel_times));
            ("op_kernel_units", json_float m.ratio);
            ("op_min_s", json_float (List.fold_left Float.min Float.infinity m.raw_s));
            ("op_median_s", json_float (M.median m.raw_s));
            ("setup_samples", string_of_int (List.length st.ratios));
            ("setup_batch", string_of_int st.batch);
          ] );
      ( "invariants",
        json_obj
          [
            ("timed_samples", string_of_int !M.samples);
            ("timed_samples_after_full_major", string_of_int !M.samples_after_major);
            ("shortest_sample_s", json_float !M.shortest_sample_s);
          ] );
      ("failures", json_list (List.map json_string m.failures));
      ("notes", json_list (List.map json_string notes));
    ]
  in
  print_endline (json_obj [ ("provenance", json_obj fields) ])

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) =
    (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ])
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj (List.map metric metrics));
       ])

(* ------------------------------------------------------------------ *)

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME " ^ String.concat "|" (List.map (fun w -> w.W.name) W.all) );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  (* One op before anything is timed: it fills lazy tables, and the heap
     peak it leaves is the program's alone (the kernel allocates too). *)
  let warm = w.W.make ~seed ~tracer:(fun () -> Sim.Trace.disabled) in
  warm.W.run ();
  ignore (warm.W.finish ());
  let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let st = setup_init w ~seed in
  let m = measure w ~seed ~seconds st in
  let setup_ratio = M.median st.ratios in
  let failures = ref m.failures and notes = ref [] in
  let metrics =
    if not traced then
      [
        ("requests_per_s", "1/s", float_of_int m.digest.W.requests /. (m.ratio *. M.kernel_ref_s));
        ("setup_s", "s", setup_ratio *. M.kernel_ref_s);
        ("peak_heap_mb", "MB", heap_mb);
      ]
    else begin
      let r, n =
        if w.W.name = W.fig5_replay.W.name then
          Layers.replay_layers ~seed ~untraced_ratio:m.ratio ~setup_ratio
        else Layers.network_layers w ~seed ~untraced_digest:m.digest ~untraced_ratio:m.ratio ~setup_ratio
      in
      failures := !failures @ r.Layers.failures;
      notes := n;
      Layers.finalize_values r.Layers.values
    end
  in
  let m = { m with failures = !failures } in
  print_provenance w ~seed ~seconds ~trace:traced ~m ~st ~notes:!notes;
  let invariants_hold = !M.samples_after_major = !M.samples && !M.shortest_sample_s >= 1e-3 in
  let correct = m.failed = 0 && !failures = [] && invariants_hold in
  List.iter (fun f -> prerr_endline ("perfbench: FAILED " ^ f)) !failures;
  if not invariants_hold then
    prerr_endline "perfbench: FAILED a timed sample ran without a full major GC first or under 1 ms";
  print_result ~correct ~attempted:m.attempted ~failed:m.failed metrics
