(* Tests for the simulation substrate: RNG, heap, engine, latency
   models, statistics, histograms, the bench ledger. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Sim.Rng.bits64 a <> Sim.Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Sim.Rng.create 7 in
  ignore (Sim.Rng.bits64 a);
  let b = Sim.Rng.copy a in
  let xa = Sim.Rng.bits64 a in
  let xb = Sim.Rng.bits64 b in
  Alcotest.(check int64) "copy continues the same stream" xa xb;
  ignore (Sim.Rng.bits64 a);
  (* advancing a does not advance b *)
  let xa2 = Sim.Rng.bits64 a and xb2 = Sim.Rng.bits64 b in
  Alcotest.(check bool) "streams diverge after independent advance" true
    (xa2 <> xb2 || xa2 = xb2 (* they are at different offsets *));
  ignore (xa2, xb2)

let test_rng_split_independent () =
  let a = Sim.Rng.create 3 in
  let b = Sim.Rng.split a in
  (* ndnlint: allow G1 -- this test exercises exactly the post-split parent draw G1 bans, to prove the child stream is independent *)
  let xs = List.init 50 (fun _ -> Sim.Rng.bits64 a) in
  let ys = List.init 50 (fun _ -> Sim.Rng.bits64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

(* Pins the split stream: gamma derivation (including its bit-count
   rejection) must stay bit-identical, or every seeded run changes. *)
let test_rng_split_stream_pinned () =
  let rng = Sim.Rng.create 7 in
  let h = ref 0L in
  for _ = 1 to 200_000 do
    h := Int64.add (Int64.mul !h 31L) (Sim.Rng.bits64 (Sim.Rng.split rng))
  done;
  Alcotest.(check string) "hash of 200k splits" "cb9a81d099a2c616"
    (Printf.sprintf "%016Lx" !h)

let test_rng_int_bounds () =
  let rng = Sim.Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Sim.Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int rng 0))

let test_rng_int_in () =
  let rng = Sim.Rng.create 6 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int_in rng (-3) 4 in
    if v < -3 || v > 4 then Alcotest.failf "int_in out of range: %d" v
  done

let test_rng_uniformity () =
  let rng = Sim.Rng.create 9 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Sim.Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let frac = float_of_int c /. float_of_int n in
      if Float.abs (frac -. 0.1) > 0.01 then
        Alcotest.failf "bucket %d has fraction %.4f" i frac)
    counts

let test_rng_float_bounds () =
  let rng = Sim.Rng.create 10 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.float rng 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "float out of bounds: %f" v
  done

let test_rng_bernoulli_extremes () =
  let rng = Sim.Rng.create 11 in
  Alcotest.(check bool) "p=0 is false" false (Sim.Rng.bernoulli rng 0.);
  Alcotest.(check bool) "p=1 is true" true (Sim.Rng.bernoulli rng 1.);
  Alcotest.(check bool) "p<0 is false" false (Sim.Rng.bernoulli rng (-0.5));
  Alcotest.(check bool) "p>1 is true" true (Sim.Rng.bernoulli rng 1.5)

let test_rng_bernoulli_mean () =
  let rng = Sim.Rng.create 12 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Sim.Rng.bernoulli rng 0.3 then incr hits
  done;
  check_close "bernoulli(0.3) mean" 0.01 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_gaussian_moments () =
  let rng = Sim.Rng.create 13 in
  let stats = Sim.Stats.create () in
  for _ = 1 to 100_000 do
    Sim.Stats.add stats (Sim.Rng.gaussian rng ~mean:5. ~stddev:2.)
  done;
  check_close "gaussian mean" 0.05 5. (Sim.Stats.mean stats);
  check_close "gaussian stddev" 0.05 2. (Sim.Stats.stddev stats)

let test_rng_exponential_moments () =
  let rng = Sim.Rng.create 14 in
  let stats = Sim.Stats.create () in
  for _ = 1 to 100_000 do
    Sim.Stats.add stats (Sim.Rng.exponential rng ~rate:4.)
  done;
  check_close "exponential mean" 0.01 0.25 (Sim.Stats.mean stats)

let test_rng_exponential_rejects () =
  let rng = Sim.Rng.create 14 in
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Rng.exponential: rate must be positive") (fun () ->
      ignore (Sim.Rng.exponential rng ~rate:0.))

let test_rng_geometric_mean () =
  let rng = Sim.Rng.create 15 in
  let stats = Sim.Stats.create () in
  let p = 0.2 in
  for _ = 1 to 100_000 do
    Sim.Stats.add stats (float_of_int (Sim.Rng.geometric rng ~p))
  done;
  (* mean = (1-p)/p = 4 *)
  check_close "geometric mean" 0.12 4. (Sim.Stats.mean stats)

let test_rng_geometric_p1 () =
  let rng = Sim.Rng.create 16 in
  for _ = 1 to 100 do
    Alcotest.(check int) "geometric(1) = 0" 0 (Sim.Rng.geometric rng ~p:1.)
  done

let test_rng_shuffle_permutation () =
  let rng = Sim.Rng.create 17 in
  let a = Array.init 100 Fun.id in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 100 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let rng = Sim.Rng.create 18 in
  for _ = 1 to 50 do
    let sample = Sim.Rng.sample_without_replacement rng 20 7 in
    Alcotest.(check int) "size" 7 (List.length sample);
    Alcotest.(check bool) "sorted distinct" true
      (List.sort_uniq compare sample = sample);
    List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 20)) sample
  done;
  Alcotest.(check (list int)) "k = n is everything"
    (List.init 5 Fun.id)
    (Sim.Rng.sample_without_replacement rng 5 5)

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Sim.Heap.create () in
  let rng = Sim.Rng.create 20 in
  for i = 0 to 999 do
    ignore (Sim.Heap.add h ~time:(Sim.Rng.float rng 100.) ~seq:i i)
  done;
  let rec drain last n =
    match Sim.Heap.pop_min h with
    | None -> n
    | Some (t, _, _) ->
      if t < last then Alcotest.failf "heap order violated: %f after %f" t last;
      drain t (n + 1)
  in
  Alcotest.(check int) "all popped" 1000 (drain neg_infinity 0)

let test_heap_fifo_ties () =
  let h = Sim.Heap.create () in
  for i = 0 to 9 do
    ignore (Sim.Heap.add h ~time:1. ~seq:i i)
  done;
  for i = 0 to 9 do
    match Sim.Heap.pop_min h with
    | Some (_, seq, v) ->
      Alcotest.(check int) "fifo seq" i seq;
      Alcotest.(check int) "fifo payload" i v
    | None -> Alcotest.fail "heap empty early"
  done

let test_heap_peek () =
  let h = Sim.Heap.create () in
  Alcotest.(check bool) "empty min_before" false (Sim.Heap.min_before h infinity);
  ignore (Sim.Heap.add h ~time:2. ~seq:0 "b");
  ignore (Sim.Heap.add h ~time:1. ~seq:1 "a");
  let clock = [| 0. |] in
  Alcotest.(check string) "peek value" "a" (Sim.Heap.min_elt_writing_time h ~time_into:clock);
  check_float "peek time" 1. clock.(0);
  check_float "min_time" 1. (Sim.Heap.min_time h);
  Alcotest.(check int) "min_seq" 1 (Sim.Heap.min_seq h);
  Alcotest.(check bool) "min_before at the head" true (Sim.Heap.min_before h 1.);
  Alcotest.(check bool) "min_before below the head" false (Sim.Heap.min_before h 0.5);
  Alcotest.(check int) "peek does not remove" 2 (Sim.Heap.length h)

let test_heap_clear () =
  let h = Sim.Heap.create () in
  for i = 0 to 5 do
    ignore (Sim.Heap.add h ~time:(float_of_int i) ~seq:i i)
  done;
  Sim.Heap.clear h;
  Alcotest.(check bool) "cleared" true (Sim.Heap.is_empty h)

(* --- Engine --- *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~delay:3. (fun () -> log := 3 :: !log));
  ignore (Sim.Engine.schedule e ~delay:1. (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~delay:2. (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "events fire in time order" [ 3; 2; 1 ] !log;
  check_float "clock at last event" 3. (Sim.Engine.now e)

let test_engine_same_instant_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Sim.Engine.schedule e ~delay:1. (fun () -> log := i :: !log))
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo among ties" (List.init 10 (fun i -> 9 - i)) !log

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay:1. (fun () ->
         fired := "outer" :: !fired;
         ignore
           (Sim.Engine.schedule e ~delay:1. (fun () -> fired := "inner" :: !fired))));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested event fires" [ "inner"; "outer" ] !fired;
  check_float "clock" 2. (Sim.Engine.now e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~delay:1. (fun () -> fired := true) in
  Sim.Engine.cancel h;
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled event does not fire" false !fired;
  Alcotest.(check bool) "handle reports cancelled" true (Sim.Engine.is_cancelled h)

(* Schedule, far ahead, an event whose closure alone holds a fresh
   block, and return its handle with a weak pointer to the block.  Out
   of line, so that nothing in the caller's frame holds the block. *)
let[@inline never] schedule_holding_block e =
  let block = Bytes.make 64 'x' in
  let w = Weak.create 1 in
  Weak.set w 0 (Some block);
  let h =
    Sim.Engine.schedule e ~delay:1000. (fun () ->
        ignore (Sys.opaque_identity (Bytes.length block)))
  in
  (h, w)

let test_engine_cancel_releases_action () =
  let e = Sim.Engine.create () in
  let h, w = schedule_holding_block e in
  Gc.full_major ();
  Alcotest.(check bool) "a queued action keeps its closure alive" true (Weak.check w 0);
  Sim.Engine.cancel h;
  Gc.full_major ();
  Alcotest.(check bool) "cancel releases the action" false (Weak.check w 0);
  Alcotest.(check bool) "the hold at its time stays queued" true (Sim.Engine.has_queued e)

(* A cancelled event leaves the queue but holds the engine at its time,
   so a drained run ends there, and the hold reached there is the last
   fire. *)
let test_engine_cancelled_clock () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:2. (fun () -> ()));
  Sim.Engine.cancel (Sim.Engine.schedule e ~delay:7. (fun () -> ()));
  Sim.Engine.run e;
  check_float "run ends at the cancelled event's time" 7. (Sim.Engine.now e);
  check_float "last fire" 7. (Sim.Engine.last_fire_time e);
  Alcotest.(check int) "one executed" 1 (Sim.Engine.events_processed e)

(* A cancelled event is out of the queue at once: the [engine.step]
   depth leaves it out and counts the one hold that stands for every
   cancel.  With dead entries kept queued, the first depth would read
   four. *)
let test_engine_cancel_leaves_depth () =
  let tracer = Sim.Trace.create () in
  let e = Sim.Engine.create ~tracer () in
  ignore (Sim.Engine.schedule e ~delay:1. (fun () -> ()));
  let h2 = Sim.Engine.schedule e ~delay:2. (fun () -> ()) in
  ignore (Sim.Engine.schedule e ~delay:3. (fun () -> ()));
  let h4 = Sim.Engine.schedule e ~delay:4. (fun () -> ()) in
  ignore (Sim.Engine.schedule e ~delay:5. (fun () -> ()));
  Sim.Engine.cancel h2;
  Sim.Engine.cancel h4;
  Alcotest.(check int) "two cancelled, three live" 3 (Sim.Engine.pending e);
  Sim.Engine.run e;
  let depths =
    Sim.Trace.events tracer |> Array.to_list
    |> List.map (fun (ev : Sim.Trace.event) -> List.assoc "depth" ev.Sim.Trace.attrs)
  in
  (* Depths after each of the three fires: the two other live events
     and the hold at 2; then, the hold re-armed at 4 when reached, the
     live event at 5 and the hold; then nothing. *)
  Alcotest.(check (list string)) "depth counts live events and the hold" [ "3"; "2"; "0" ]
    depths;
  check_float "the run ends at the last event" 5. (Sim.Engine.now e)

let test_engine_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Sim.Engine.run ~until:5. e;
  Alcotest.(check int) "only events up to the limit" 5 !count;
  check_float "clock clamped to limit" 5. (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "remaining events fire on resume" 10 !count

let test_engine_max_events () =
  let e = Sim.Engine.create () in
  (* Self-perpetuating event chain. *)
  let rec arm () = ignore (Sim.Engine.schedule e ~delay:1. arm) in
  arm ();
  Sim.Engine.run ~max_events:100 e;
  Alcotest.(check int) "bounded by max_events" 100 (Sim.Engine.events_processed e)

let test_engine_negative_delay_clamped () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:5. (fun () -> ()));
  Sim.Engine.run e;
  let fired_at = ref (-1.) in
  ignore (Sim.Engine.schedule e ~delay:(-3.) (fun () -> fired_at := Sim.Engine.now e));
  Sim.Engine.run e;
  check_float "negative delay runs now" 5. !fired_at

let test_engine_schedule_at_past () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:2. (fun () -> ()));
  Sim.Engine.run e;
  let fired_at = ref (-1.) in
  ignore (Sim.Engine.schedule_at e ~time:0.5 (fun () -> fired_at := Sim.Engine.now e));
  Sim.Engine.run e;
  check_float "past time clamps to now" 2. !fired_at

let test_engine_pending_live_only () =
  let e = Sim.Engine.create () in
  let h1 = Sim.Engine.schedule e ~delay:1. (fun () -> ()) in
  let h2 = Sim.Engine.schedule e ~delay:2. (fun () -> ()) in
  ignore (Sim.Engine.schedule e ~delay:3. (fun () -> ()));
  Alcotest.(check int) "three live" 3 (Sim.Engine.pending e);
  Sim.Engine.cancel h1;
  Alcotest.(check int) "cancelled event not counted" 2 (Sim.Engine.pending e);
  Sim.Engine.cancel h1;
  Alcotest.(check int) "double cancel counted once" 2 (Sim.Engine.pending e);
  (* The first pop is the hold left at the cancelled event's time: no
     action runs, and the live count is unchanged. *)
  ignore (Sim.Engine.step e);
  Alcotest.(check int) "nothing executed yet" 0 (Sim.Engine.events_processed e);
  Alcotest.(check int) "still two live" 2 (Sim.Engine.pending e);
  ignore (Sim.Engine.step e);
  Alcotest.(check int) "one executed" 1 (Sim.Engine.events_processed e);
  Alcotest.(check int) "one live left" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel h2;
  Alcotest.(check int) "cancel after fire leaves count intact" 1
    (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending e)

(* A hold stands in for an event without being one: the run ends at
   the held time, a hold that moves later is followed, and nothing is
   counted or traced. *)
let test_engine_hold () =
  let tracer = Sim.Trace.create () in
  let e = Sim.Engine.create ~tracer () in
  ignore
    (Sim.Engine.schedule_at e ~time:1. (fun () ->
         Sim.Engine.hold_until e 5.;
         Sim.Engine.hold_until e 3.));
  ignore (Sim.Engine.schedule_at e ~time:4. (fun () -> Sim.Engine.hold_until e 9.));
  Sim.Engine.run ~until:7. e;
  check_float "a limit before the horizon stops the clock there" 7. (Sim.Engine.now e);
  Alcotest.(check bool) "the hold is still queued" true (Sim.Engine.has_queued e);
  Alcotest.(check int) "a queued hold is not pending" 0 (Sim.Engine.pending e);
  Sim.Engine.run e;
  check_float "a drained run ends at the latest hold" 9. (Sim.Engine.now e);
  check_float "and reports it as the last fire" 9. (Sim.Engine.last_fire_time e);
  Alcotest.(check int) "holds are not counted" 2 (Sim.Engine.events_processed e);
  Alcotest.(check int) "holds are not traced" 2 (Array.length (Sim.Trace.events tracer));
  Alcotest.(check int) "nothing left" 0 (Sim.Engine.pending e);
  Sim.Engine.hold_until e 2.;
  Alcotest.(check bool) "a hold in the past queues nothing" false
    (Sim.Engine.has_queued e)

(* --- Latency --- *)

let test_latency_constant () =
  let rng = Sim.Rng.create 30 in
  check_float "constant" 4.2 (Sim.Latency.sample (Sim.Latency.Constant 4.2) rng)

let test_latency_uniform_bounds () =
  let rng = Sim.Rng.create 31 in
  let m = Sim.Latency.Uniform { lo = 2.; hi = 3. } in
  for _ = 1 to 1000 do
    let v = Sim.Latency.sample m rng in
    if v < 2. || v > 3. then Alcotest.failf "uniform out of bounds: %f" v
  done

let test_latency_normal_truncation () =
  let rng = Sim.Rng.create 32 in
  let m = Sim.Latency.Normal { mean = 1.; stddev = 5.; min = 0.5 } in
  for _ = 1 to 2000 do
    let v = Sim.Latency.sample m rng in
    if v < 0.5 then Alcotest.failf "normal below min: %f" v
  done

let test_latency_shifted_exponential_floor () =
  let rng = Sim.Rng.create 33 in
  let m = Sim.Latency.Shifted_exponential { shift = 3.; rate = 2. } in
  for _ = 1 to 2000 do
    let v = Sim.Latency.sample m rng in
    if v < 3. then Alcotest.failf "below shift: %f" v
  done

let test_latency_sum_mean () =
  let rng = Sim.Rng.create 34 in
  let m = Sim.Latency.Sum [ Sim.Latency.Constant 1.; Sim.Latency.Constant 2. ] in
  check_float "sum of constants" 3. (Sim.Latency.sample m rng);
  check_float "analytic mean" 3. (Sim.Latency.mean m)

let test_latency_mean_estimates () =
  let rng = Sim.Rng.create 35 in
  let models =
    [
      Sim.Latency.Uniform { lo = 1.; hi = 5. };
      Sim.Latency.Shifted_exponential { shift = 2.; rate = 0.5 };
      Sim.Latency.Normal { mean = 10.; stddev = 1.; min = 0. };
    ]
  in
  List.iter
    (fun m ->
      let stats = Sim.Stats.create () in
      for _ = 1 to 50_000 do
        Sim.Stats.add stats (Sim.Latency.sample m rng)
      done;
      check_close "empirical mean matches analytic" 0.1 (Sim.Latency.mean m)
        (Sim.Stats.mean stats))
    models

(* --- Stats --- *)

let test_stats_basic () =
  let s = Sim.Stats.create () in
  Sim.Stats.add_list s [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (Sim.Stats.count s);
  check_float "mean" 2.5 (Sim.Stats.mean s);
  check_close "variance" 1e-9 (5. /. 3.) (Sim.Stats.variance s);
  check_float "min" 1. (Sim.Stats.min s);
  check_float "max" 4. (Sim.Stats.max s);
  check_float "total" 10. (Sim.Stats.total s)

let test_stats_empty () =
  let s = Sim.Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Sim.Stats.mean s));
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Sim.Stats.variance s))

let test_stats_merge () =
  let a = Sim.Stats.create () and b = Sim.Stats.create () and whole = Sim.Stats.create () in
  let rng = Sim.Rng.create 40 in
  for i = 1 to 1000 do
    let x = Sim.Rng.float rng 10. in
    Sim.Stats.add whole x;
    if i <= 300 then Sim.Stats.add a x else Sim.Stats.add b x
  done;
  let merged = Sim.Stats.merge a b in
  Alcotest.(check int) "merged count" (Sim.Stats.count whole) (Sim.Stats.count merged);
  check_close "merged mean" 1e-9 (Sim.Stats.mean whole) (Sim.Stats.mean merged);
  check_close "merged variance" 1e-8 (Sim.Stats.variance whole)
    (Sim.Stats.variance merged)

let test_percentiles () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Sim.Stats.median xs);
  check_float "p0" 1. (Sim.Stats.percentile xs 0.);
  check_float "p100" 5. (Sim.Stats.percentile xs 100.);
  check_float "p25" 2. (Sim.Stats.percentile xs 25.)

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Sim.Stats.percentile [||] 50.));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Sim.Stats.percentile [| 1. |] 101.))

(* --- Histogram --- *)

let test_histogram_binning () =
  let h = Sim.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  List.iter (Sim.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9 ];
  let counts = Sim.Histogram.counts h in
  Alcotest.(check int) "bin 0" 1 counts.(0);
  Alcotest.(check int) "bin 1" 2 counts.(1);
  Alcotest.(check int) "bin 9" 1 counts.(9);
  Alcotest.(check int) "total" 4 (Sim.Histogram.count h)

let test_histogram_clamping () =
  let h = Sim.Histogram.create ~lo:0. ~hi:1. ~bins:4 in
  Sim.Histogram.add h (-5.);
  Sim.Histogram.add h 100.;
  let counts = Sim.Histogram.counts h in
  Alcotest.(check int) "low clamps to first" 1 counts.(0);
  Alcotest.(check int) "high clamps to last" 1 counts.(3)

let test_histogram_pdf_integrates () =
  let rng = Sim.Rng.create 50 in
  let h = Sim.Histogram.create ~lo:0. ~hi:5. ~bins:25 in
  for _ = 1 to 10_000 do
    Sim.Histogram.add h (Sim.Rng.float rng 5.)
  done;
  let pdf = Sim.Histogram.pdf h in
  let edges = Sim.Histogram.bin_edges h in
  let integral =
    Array.fold_left ( +. ) 0.
      (Array.mapi (fun i p -> p *. (snd edges.(i) -. fst edges.(i))) pdf)
  in
  check_close "pdf integrates to 1" 1e-9 1. integral

let test_histogram_overlap () =
  let a = Sim.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  let b = Sim.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  for _ = 1 to 100 do
    Sim.Histogram.add a 1.5;
    Sim.Histogram.add b 8.5
  done;
  check_float "disjoint overlap" 0. (Sim.Histogram.overlap a b);
  check_float "self overlap" 1. (Sim.Histogram.overlap a a)

let test_histogram_overlap_layout_mismatch () =
  let a = Sim.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  let b = Sim.Histogram.create ~lo:0. ~hi:10. ~bins:20 in
  Alcotest.check_raises "layouts differ"
    (Invalid_argument "Histogram.overlap: layouts differ") (fun () ->
      ignore (Sim.Histogram.overlap a b))

let test_histogram_of_samples () =
  let h = Sim.Histogram.of_samples ~bins:5 [| 1.; 2.; 3. |] in
  Alcotest.(check int) "count" 3 (Sim.Histogram.count h);
  Alcotest.(check int) "bins" 5 (Sim.Histogram.bins h)

(* --- merge laws (the contracts Sim.Parallel relies on) --- *)

let test_histogram_merge_splits () =
  let rng = Sim.Rng.create 77 in
  let samples = Array.init 1_000 (fun _ -> Sim.Rng.float rng 10.) in
  let whole = Sim.Histogram.create ~lo:0. ~hi:10. ~bins:32 in
  Array.iter (Sim.Histogram.add whole) samples;
  let left = Sim.Histogram.create ~lo:0. ~hi:10. ~bins:32 in
  let right = Sim.Histogram.create ~lo:0. ~hi:10. ~bins:32 in
  Array.iteri
    (fun i x -> Sim.Histogram.add (if i < 400 then left else right) x)
    samples;
  let merged = Sim.Histogram.merge left right in
  Alcotest.(check bool) "merge of splits = unsplit accumulation" true
    (Sim.Histogram.equal whole merged);
  Alcotest.(check int) "count adds up" 1_000 (Sim.Histogram.count merged);
  (* merge leaves its arguments untouched *)
  Alcotest.(check int) "left untouched" 400 (Sim.Histogram.count left);
  Sim.Histogram.merge_into ~into:left right;
  Alcotest.(check bool) "merge_into agrees with merge" true
    (Sim.Histogram.equal whole left)

let test_histogram_merge_layout_mismatch () =
  let a = Sim.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  let b = Sim.Histogram.create ~lo:0. ~hi:5. ~bins:10 in
  Alcotest.check_raises "layouts differ"
    (Invalid_argument "Histogram.merge: layouts differ") (fun () ->
      ignore (Sim.Histogram.merge a b))

let test_stats_merge_chan () =
  (* Chan's parallel update must agree with the unsplit Welford stream
     to 1e-9 even when the two halves have very different means. *)
  let rng = Sim.Rng.create 78 in
  let low = Array.init 500 (fun _ -> Sim.Rng.gaussian rng ~mean:2. ~stddev:0.5) in
  let high = Array.init 700 (fun _ -> Sim.Rng.gaussian rng ~mean:900. ~stddev:4.) in
  let whole = Sim.Stats.create () in
  Array.iter (Sim.Stats.add whole) low;
  Array.iter (Sim.Stats.add whole) high;
  let a = Sim.Stats.create () and b = Sim.Stats.create () in
  Array.iter (Sim.Stats.add a) low;
  Array.iter (Sim.Stats.add b) high;
  let merged = Sim.Stats.merge a b in
  Alcotest.(check int) "count" (Sim.Stats.count whole) (Sim.Stats.count merged);
  check_close "mean" 1e-9 (Sim.Stats.mean whole) (Sim.Stats.mean merged);
  check_close "variance (relative)" 1e-9 1.
    (Sim.Stats.variance merged /. Sim.Stats.variance whole);
  check_float "min" (Sim.Stats.min whole) (Sim.Stats.min merged);
  check_float "max" (Sim.Stats.max whole) (Sim.Stats.max merged)

(* --- engine against a sorted-list model --- *)

(* The engine's surface the model test drives. *)
module type ENGINE = sig
  type t
  type handle

  val now : t -> float
  val last_fire_time : t -> float
  val schedule : t -> delay:float -> (unit -> unit) -> handle
  val schedule_key_at : t -> time:float -> key:int -> (unit -> unit) -> handle
  val cancel : handle -> unit
  val hold_until : t -> float -> unit
  val step : t -> bool
  val run : ?until:float -> ?max_events:int -> t -> unit
  val pending : t -> int
  val has_queued : t -> bool
  val next_event_time : t -> float
  val events_processed : t -> int
end

(* Reference engine: events in a list kept sorted by (time, key) and
   popped from the front before their action runs, so it has no heap,
   no dead root and no replace-top dispatch.  The hold event (key -1,
   re-armed at the horizon when reached) and cancellation follow
   [Sim.Engine]'s documented rules: a cancelled event leaves the list
   at once and holds the engine at its time.  [pending] counts the
   live scheduled events only, never the hold.  [steps] records
   (depth, processed) per executed event, newest first: what the
   engine's [engine.step] records carry. *)
module Engine_model = struct
  type handle = {
    time : float;
    key : int;
    mutable live : bool;
    action : unit -> unit;
    owner : t;
  }

  and t = {
    mutable queue : handle list;
    mutable clock : float;
    mutable last_fire : float;
    mutable next_key : int;
    mutable processed : int;
    mutable horizon : float;
    mutable hold : handle option;
    mutable steps : (int * int) list;
  }

  let create () =
    {
      queue = [];
      clock = 0.;
      last_fire = 0.;
      next_key = 0;
      processed = 0;
      horizon = neg_infinity;
      hold = None;
      steps = [];
    }

  let enqueue t ev =
    let before a b = a.time < b.time || (a.time = b.time && a.key < b.key) in
    let rec ins = function
      | [] -> [ ev ]
      | x :: rest as l -> if before ev x then ev :: l else x :: ins rest
    in
    t.queue <- ins t.queue

  let now t = t.clock
  let last_fire_time t = t.last_fire

  let schedule t ~delay f =
    let ev =
      { time = t.clock +. Float.max 0. delay; key = t.next_key; live = true; action = f; owner = t }
    in
    t.next_key <- t.next_key + 1;
    enqueue t ev;
    ev

  let schedule_key_at t ~time ~key f =
    let ev = { time = Float.max t.clock time; key; live = true; action = f; owner = t } in
    enqueue t ev;
    ev

  let arm_hold t time =
    let h = { time; key = -1; live = false; action = ignore; owner = t } in
    t.hold <- Some h;
    enqueue t h

  let hold_until t time =
    if time > t.horizon then t.horizon <- time;
    if Option.is_none t.hold && time > t.clock then arm_hold t time

  let cancel ev =
    if ev.live then begin
      ev.live <- false;
      let t = ev.owner in
      t.queue <- List.filter (fun x -> x != ev) t.queue;
      hold_until t ev.time
    end

  (* Pop the head and run it; whether an event was executed. *)
  let pop t =
    match t.queue with
    | [] -> invalid_arg "Engine_model.pop"
    | ev :: rest -> (
      t.queue <- rest;
      t.clock <- ev.time;
      match t.hold with
      | Some h when h == ev ->
        t.last_fire <- t.clock;
        t.hold <- None;
        if t.horizon > t.clock then arm_hold t t.horizon;
        false
      | _ ->
        ev.live <- false;
        t.processed <- t.processed + 1;
        t.last_fire <- t.clock;
        t.steps <- (List.length t.queue, t.processed) :: t.steps;
        ev.action ();
        true)

  let step t =
    match t.queue with
    | [] -> false
    | _ :: _ ->
      ignore (pop t);
      true

  let run ?(until = infinity) ?(max_events = max_int) t =
    let rec go budget =
      if budget > 0 then
        match t.queue with
        | ev :: _ when ev.time <= until -> go (if pop t then budget - 1 else budget)
        | [] -> ()
        | _ :: _ -> if until < infinity then t.clock <- until
    in
    go max_events

  let pending t = List.length (List.filter (fun ev -> ev.live) t.queue)
  let has_queued t = match t.queue with [] -> false | _ :: _ -> true

  let next_event_time t =
    match t.queue with [] -> infinity | ev :: _ -> ev.time

  let events_processed t = t.processed
end

(* One step of a schedule.  [Sched (delay, b)] schedules an event whose
   action performs behaviour [b]; [Cancel k] cancels the [k]-th live
   event (modulo their count); [Nested]/[Step] inside an action re-enter
   the engine; [Observe] logs the queue predicates, reading
   [has_queued] and [pending] before [next_event_time]. *)
type engine_act =
  | Sched of int * int
  | Cancel of int
  | Hold of int
  | Nested of int
  | Run_top of int option * int option
  | Step_once
  | Observe
  | Raise

let pp_engine_act = function
  | Sched (d, b) -> Printf.sprintf "sched+%d:b%d" d b
  | Cancel k -> Printf.sprintf "cancel#%d" k
  | Hold d -> Printf.sprintf "hold+%d" d
  | Nested d -> Printf.sprintf "nested-run+%d" d
  | Run_top (u, m) ->
    Printf.sprintf "run%s%s"
      (match u with Some d -> Printf.sprintf " until+%d" d | None -> "")
      (match m with Some n -> Printf.sprintf " max%d" n | None -> "")
  | Step_once -> "step"
  | Observe -> "observe"
  | Raise -> "raise"

exception Boom

(* Run one schedule (behaviours plus top-level commands) and return the
   log of fires, cancels, observations and raises.  A [keyed] run
   schedules every event with [schedule_key_at], as networks do, under
   a key that is unique but not monotone in scheduling order, so a new
   event can sort before the one whose action schedules it. *)
module Engine_driver (E : ENGINE) = struct
  let max_scheduled = 80
  let max_depth = 3

  (* [id * 37 land 127] is a bijection on [0, 128), and
     [max_scheduled] < 128. *)
  let key_of id = id * 37 land 127

  let exec ~keyed (behaviours : engine_act list array) cmds e =
    let log = Buffer.create 1024 in
    let live = ref [] and scheduled = ref 0 and depth = ref 0 in
    let observe tag =
      let queued = E.has_queued e in
      let pending = E.pending e in
      let next = E.next_event_time e in
      Printf.bprintf log "%s now=%g pending=%d queued=%b next=%g processed=%d last=%g\n"
        tag (E.now e) pending queued next (E.events_processed e) (E.last_fire_time e)
    in
    let rec perform = function
      | Sched (d, b) ->
        if !scheduled < max_scheduled then begin
          let id = !scheduled in
          incr scheduled;
          let f () = fire id b in
          let h =
            if keyed then
              E.schedule_key_at e ~time:(E.now e +. float_of_int d) ~key:(key_of id) f
            else E.schedule e ~delay:(float_of_int d) f
          in
          live := (id, h) :: !live
        end
      | Cancel k -> (
        match !live with
        | [] -> ()
        | l ->
          let id, h = List.nth l (k mod List.length l) in
          E.cancel h;
          live := List.filter (fun (i, _) -> i <> id) l;
          Printf.bprintf log "cancel %d\n" id)
      | Hold d -> E.hold_until e (E.now e +. float_of_int d)
      | Nested d -> if !depth < max_depth then E.run ~until:(E.now e +. float_of_int d) e
      | Run_top (u, m) ->
        E.run ?until:(Option.map (fun d -> E.now e +. float_of_int d) u) ?max_events:m e
      | Step_once -> if !depth < max_depth then Printf.bprintf log "step %b\n" (E.step e)
      | Observe -> observe "observe"
      | Raise -> raise Boom
    and fire id b =
      live := List.filter (fun (i, _) -> i <> id) !live;
      Printf.bprintf log "fire %d at %g\n" id (E.now e);
      incr depth;
      Fun.protect ~finally:(fun () -> decr depth) (fun () -> List.iter perform behaviours.(b))
    in
    let guarded f =
      match f () with
      | () -> ()
      | exception Boom ->
        (* A raising action leaves the engine usable: the next call
           carries on from the event after it. *)
        observe "boom"
    in
    List.iter (fun c -> guarded (fun () -> perform c)) cmds;
    observe "end";
    (* Drain: every event fires once, so the raises run out. *)
    let rec drain () =
      if E.has_queued e then begin
        guarded (fun () -> E.run e);
        drain ()
      end
    in
    drain ();
    observe "drained";
    Buffer.contents log
end

module Drive_engine = Engine_driver (Sim.Engine)
module Drive_model = Engine_driver (Engine_model)

let gen_behaviour_act =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun d b -> Sched (d, b)) (int_bound 4) (int_bound 5));
        (2, map (fun k -> Cancel k) (int_bound 7));
        (1, map (fun d -> Hold d) (int_range 1 12));
        (1, map (fun d -> Nested d) (int_bound 6));
        (1, return Step_once);
        (2, return Observe);
        (1, return Raise);
      ])

let gen_top_act =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun d b -> Sched (d, b)) (int_bound 6) (int_bound 5));
        (1, map (fun k -> Cancel k) (int_bound 7));
        (1, map (fun d -> Hold d) (int_range 1 20));
        ( 3,
          map2
            (fun u m -> Run_top (u, m))
            (opt (int_bound 8))
            (opt (int_range 1 6)) );
        (2, return Step_once);
        (1, return Observe);
      ])

let arb_engine_schedule =
  let print (keyed, behaviours, cmds) =
    let acts l = String.concat " " (List.map pp_engine_act l) in
    String.concat "\n"
      ((Printf.sprintf "keyed: %b" keyed
       :: Array.to_list (Array.mapi (fun i b -> Printf.sprintf "b%d: %s" i (acts b)) behaviours))
      @ [ "top: " ^ acts cmds ])
  in
  QCheck.make ~print
    QCheck.Gen.(
      triple bool
        (array_repeat 6 (list_size (int_bound 4) gen_behaviour_act))
        (list_size (int_range 1 20) gen_top_act))

let engine_steps tracer =
  Sim.Trace.events tracer |> Array.to_list
  |> List.filter_map (fun (ev : Sim.Trace.event) ->
         if ev.Sim.Trace.kind = Sim.Trace.Engine_step then
           Some
             ( int_of_string (List.assoc "depth" ev.Sim.Trace.attrs),
               int_of_string (List.assoc "processed" ev.Sim.Trace.attrs) )
         else None)

let engine_agrees_with_model (keyed, behaviours, cmds) =
  let tracer = Sim.Trace.create () in
  let e = Sim.Engine.create ~tracer () in
  let got = Drive_engine.exec ~keyed behaviours cmds e in
  let m = Engine_model.create () in
  let want = Drive_model.exec ~keyed behaviours cmds m in
  if got <> want then
    QCheck.Test.fail_reportf "engine log:\n%s\nmodel log:\n%s" got want;
  let steps = engine_steps tracer and model_steps = List.rev m.Engine_model.steps in
  if steps <> model_steps then
    QCheck.Test.fail_reportf "engine.step (depth, processed): engine [%s] model [%s]"
      (String.concat "; " (List.map (fun (d, p) -> Printf.sprintf "%d,%d" d p) steps))
      (String.concat "; "
         (List.map (fun (d, p) -> Printf.sprintf "%d,%d" d p) model_steps));
  true

(* --- property tests --- *)

(* --- Bench ledger --- *)

let ledger_section argv fields =
  Sim.Bench.section ~git_rev:(String.make 40 'a') ~host_domains:2 ~argv fields

let merge ledger name section =
  match Sim.Bench.merge_section ledger ~name section with
  | Ok text -> text
  | Error msg -> Alcotest.failf "merge %s: %s" name msg

(* Writing A, B, then A again replaces A where it stood and leaves B's
   text as B's writer left it. *)
let test_ledger_merge_keeps_other_sections () =
  let a1 = ledger_section [ "core" ] [ ("ns", "1.000") ] in
  let a2 = ledger_section [ "core"; "--quick" ] [ ("ns", "2.000") ] in
  let b = ledger_section [ "overload" ] [ ("points", "[{\"x\": 1}, {\"x\": 2}]") ] in
  let ledger = merge (Some (merge (Some (merge None "A" a1)) "B" b)) "A" a2 in
  Alcotest.(check string) "A replaced in place, B verbatim"
    ("{\n  \"A\": " ^ a2 ^ ",\n  \"B\": " ^ b ^ "\n}\n")
    ledger;
  (* A section written in some other layout is still copied byte for byte. *)
  let odd = "{\"x\":1 ,\n\t\"y\" : [ true,null, -2.5e3 ] }" in
  let text = "{ \"B\" :" ^ odd ^ " , \"A\": {}}" in
  Alcotest.(check string) "foreign layout kept"
    ("{\n  \"B\": " ^ odd ^ ",\n  \"A\": " ^ a1 ^ "\n}\n")
    (merge (Some text) "A" a1)

let test_ledger_merge_fresh () =
  let a = ledger_section [] [] in
  Alcotest.(check string) "missing file starts a ledger" ("{\n  \"core\": " ^ a ^ "\n}\n")
    (merge None "core" a);
  Alcotest.(check bool) "section carries provenance" true
    (String.starts_with
       ~prefix:"{\n    \"git_rev\": \"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\",\n    \"host_domains\": 2,\n    \"argv\": [],"
       (ledger_section [] [ ("x", "1") ]))

(* A ledger the writer cannot parse is an [Error] naming the line and
   column; the writer writes only on [Ok], so the file is left as is. *)
let test_ledger_merge_rejects_malformed () =
  let section = ledger_section [] [] in
  List.iter
    (fun (text, expected) ->
      match Sim.Bench.merge_section (Some text) ~name:"core" section with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error msg -> Alcotest.(check string) (Printf.sprintf "%S" text) expected msg)
    [
      ("", "line 1, column 1: expected '{'");
      ("{\n  \"core\": {\"a\": 1},\n  \"overload\": {\"points\": [1, 2\n}\n",
       "line 4, column 1: expected ']'");
      ("{\"core\": {\"a\": 1}}\n}\n", "line 2, column 1: text after the ledger object");
      ("{\"core\": {\"a\": nope}}", "line 1, column 16: expected a value");
      ("{\"core\": \"open", "line 1, column 15: unterminated string");
      ("{\"core\": \"a\\", "line 1, column 13: unterminated string");
    ];
  match Sim.Bench.merge_section None ~name:"core" "{\"a\": }" with
  | Ok _ -> Alcotest.fail "accepted a malformed section"
  | Error _ -> ()

let test_git_rev () =
  let rev = "0123456789abcdef0123456789abcdef01234567" in
  let other = String.make 40 'f' in
  let resolve files = Sim.Bench.git_rev ~read:(fun path -> List.assoc_opt path files) in
  let check what expected files = Alcotest.(check (option string)) what expected (resolve files) in
  let on_main = ("HEAD", "ref: refs/heads/main\n") in
  check "loose ref" (Some rev) [ on_main; ("refs/heads/main", rev ^ "\n") ];
  check "packed ref" (Some rev)
    [
      on_main;
      ( "packed-refs",
        "# pack-refs with: peeled fully-peeled sorted \n" ^ other ^ " refs/heads/dev\n" ^ rev
        ^ " refs/heads/main\n" ^ other ^ " refs/tags/v1\n^" ^ other ^ "\n" );
    ];
  check "detached HEAD" (Some rev) [ ("HEAD", rev ^ "\n") ];
  check "loose ref shadows packed" (Some rev)
    [ on_main; ("refs/heads/main", rev); ("packed-refs", other ^ " refs/heads/main\n") ];
  check "symbolic ref chain" (Some rev)
    [ on_main; ("refs/heads/main", "ref: refs/heads/dev\n"); ("refs/heads/dev", rev) ];
  check "unborn branch" None [ on_main; ("packed-refs", other ^ " refs/heads/dev\n") ];
  check "not a repository" None []

let qcheck_tests =
  [
    QCheck.Test.make ~name:"rng int always within bound" ~count:500
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Sim.Rng.create seed in
        let v = Sim.Rng.int rng bound in
        v >= 0 && v < bound);
    QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
      QCheck.(
        pair
          (array_of_size Gen.(int_range 1 50) (float_range (-100.) 100.))
          (pair (float_range 0. 100.) (float_range 0. 100.)))
      (fun (xs, (p1, p2)) ->
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        Sim.Stats.percentile xs lo <= Sim.Stats.percentile xs hi +. 1e-9);
    QCheck.Test.make ~name:"engine agrees with sorted-list model" ~count:1000
      arb_engine_schedule engine_agrees_with_model;
    QCheck.Test.make ~name:"heap drains in key order" ~count:200
      QCheck.(list (float_range 0. 1000.))
      (fun times ->
        let h = Sim.Heap.create () in
        List.iteri (fun i t -> ignore (Sim.Heap.add h ~time:t ~seq:i i)) times;
        let rec drain last =
          match Sim.Heap.pop_min h with
          | None -> true
          | Some (t, _, _) -> t >= last && drain t
        in
        drain neg_infinity);
    (* Model check: the slot-indirection heap against a sorted-list
       reference, over an arbitrary interleaving of adds, pops, root
       replacements ([replace_min]: drop the head, then insert, with a
       new key that may sort before or after the old root), removals of
       a live element by the slot [add] or [replace_min] returned, and
       clears.  After every op the length and the minimum (time, seq
       and payload) must agree; a pop must return the model's head, and
       the heap left at the end must drain in the model's order.  Times
       are drawn from a coarse grid so ties are common, which pins the
       FIFO seq tie-break; adds outweigh pops and removals, so the heap
       grows deep enough that an entry moved into a removed one's place
       can belong above it; element identity (not just key order) is
       compared so a slot-recycling bug that served the wrong payload
       would be caught.  A retired slot not reused since must be
       refused by [remove_writing_time]. *)
    QCheck.Test.make ~name:"heap agrees with sorted-list model" ~count:300
      QCheck.(
        make
          ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
          Gen.(
            list_size (int_range 0 300)
              (frequency
                 [
                   (40, map (fun t -> `Add (float_of_int t)) (int_range 0 20));
                   (10, return `Pop);
                   (10, map (fun t -> `Replace (float_of_int t)) (int_range 0 20));
                   (16, map (fun k -> `Remove k) nat);
                   (1, return `Clear);
                 ])))
      (fun ops ->
        let h = Sim.Heap.create () in
        (* Model: list of (time, seq, payload) kept sorted by (time,
           seq), and each queued payload's slot. *)
        let model = ref [] and slots = Hashtbl.create 16 in
        let retired = ref (-1) in
        let key_le (t1, s1, _) (t2, s2, _) =
          t1 < t2 || (t1 = t2 && s1 <= s2)
        in
        let insert e =
          let rec go = function
            | [] -> [ e ]
            | x :: rest -> if key_le e x then e :: x :: rest else x :: go rest
          in
          model := go !model
        in
        let retire payload =
          retired := Hashtbl.find slots payload;
          Hashtbl.remove slots payload
        in
        let agrees () =
          Sim.Heap.length h = List.length !model
          &&
          match !model with
          | [] -> Sim.Heap.is_empty h
          | (time, seq, payload) :: _ ->
            let clock = [| nan |] in
            Sim.Heap.min_elt_writing_time h ~time_into:clock = payload
            && clock.(0) = time
            && Sim.Heap.min_seq h = seq
        in
        let seq = ref 0 in
        let step op =
          match op with
          | `Add t ->
            let payload = !seq * 17 in
            Hashtbl.replace slots payload (Sim.Heap.add h ~time:t ~seq:!seq payload);
            insert (t, !seq, payload);
            incr seq;
            true
          | `Pop -> (
            match (Sim.Heap.pop_min h, !model) with
            | None, [] -> true
            | Some got, ((_, _, payload) as m) :: rest ->
              model := rest;
              retire payload;
              got = m
            | _ -> false)
          | `Replace t -> (
            let payload = !seq * 17 in
            let s = !seq in
            incr seq;
            match !model with
            | [] -> (
              match Sim.Heap.replace_min h ~time:t ~seq:s payload with
              | _ -> false
              | exception Invalid_argument _ -> Sim.Heap.is_empty h)
            | (_, _, old) :: rest ->
              let slot = Sim.Heap.replace_min h ~time:t ~seq:s payload in
              let took_root_slot = slot = Hashtbl.find slots old in
              Hashtbl.remove slots old;
              Hashtbl.replace slots payload slot;
              model := rest;
              insert (t, s, payload);
              took_root_slot)
          | `Remove k -> (
            match !model with
            | [] -> (
              (* Nothing is live, so any retired slot is refused. *)
              match Sim.Heap.remove_writing_time h !retired ~time_into:[| nan |] with
              | () -> false
              | exception Invalid_argument _ -> true)
            | m ->
              let ((time, _, payload) as e) = List.nth m (k mod List.length m) in
              let got = [| nan |] in
              Sim.Heap.remove_writing_time h (Hashtbl.find slots payload) ~time_into:got;
              model := List.filter (fun x -> x != e) m;
              retire payload;
              got.(0) = time
              && (Hashtbl.fold (fun _ s acc -> acc || s = !retired) slots false
                 ||
                 match Sim.Heap.remove_writing_time h !retired ~time_into:got with
                 | () -> false
                 | exception Invalid_argument _ -> true))
          | `Clear ->
            Sim.Heap.clear h;
            model := [];
            Hashtbl.reset slots;
            retired := -1;
            Sim.Heap.is_empty h
        in
        List.for_all (fun op -> step op && agrees ()) ops
        &&
        let rec drain () =
          match (Sim.Heap.pop_min h, !model) with
          | None, [] -> true
          | Some got, m :: rest ->
            model := rest;
            got = m && drain ()
          | _ -> false
        in
        drain ());
    QCheck.Test.make ~name:"welford matches direct mean" ~count:200
      QCheck.(array_of_size Gen.(int_range 1 100) (float_range (-1e3) 1e3))
      (fun xs ->
        let s = Sim.Stats.create () in
        Array.iter (Sim.Stats.add s) xs;
        let direct = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs) in
        Float.abs (Sim.Stats.mean s -. direct) < 1e-6);
    QCheck.Test.make ~name:"histogram merge of random splits = unsplit" ~count:200
      QCheck.(
        pair
          (list_of_size Gen.(int_range 0 200) (float_range (-5.) 15.))
          (int_range 0 200))
      (fun (samples, cut) ->
        let cut = min cut (List.length samples) in
        let fill xs =
          let h = Sim.Histogram.create ~lo:0. ~hi:10. ~bins:16 in
          List.iter (Sim.Histogram.add h) xs;
          h
        in
        let whole = fill samples in
        let left = fill (List.filteri (fun i _ -> i < cut) samples) in
        let right = fill (List.filteri (fun i _ -> i >= cut) samples) in
        Sim.Histogram.equal whole (Sim.Histogram.merge left right));
    QCheck.Test.make ~name:"stats merge matches unsplit stream (Chan)" ~count:200
      QCheck.(
        pair
          (list_of_size Gen.(int_range 0 100) (float_range (-1e3) 1e3))
          (list_of_size Gen.(int_range 0 100) (float_range (-1e3) 1e3)))
      (fun (xs, ys) ->
        let fill zs =
          let s = Sim.Stats.create () in
          List.iter (Sim.Stats.add s) zs;
          s
        in
        let whole = fill (xs @ ys) in
        let merged = Sim.Stats.merge (fill xs) (fill ys) in
        let close a b =
          (Float.is_nan a && Float.is_nan b)
          || Float.abs (a -. b)
             <= 1e-7 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
        in
        Sim.Stats.count whole = Sim.Stats.count merged
        && close (Sim.Stats.mean whole) (Sim.Stats.mean merged)
        && close (Sim.Stats.variance whole) (Sim.Stats.variance merged)
        && close (Sim.Stats.total whole) (Sim.Stats.total merged));
    QCheck.Test.make ~name:"latency samples are non-negative" ~count:500
      QCheck.(triple small_int (float_range 0. 10.) (float_range 0.1 5.))
      (fun (seed, mean, stddev) ->
        let rng = Sim.Rng.create seed in
        Sim.Latency.sample (Sim.Latency.Normal { mean; stddev; min = 0. }) rng >= 0.);
    QCheck.Test.make ~name:"engine: same-instant events fire in scheduling order"
      ~count:200
      QCheck.(int_range 1 50)
      (fun n ->
        let e = Sim.Engine.create () in
        let log = ref [] in
        for i = 0 to n - 1 do
          ignore (Sim.Engine.schedule e ~delay:1. (fun () -> log := i :: !log))
        done;
        Sim.Engine.run e;
        List.rev !log = List.init n (fun i -> i));
    QCheck.Test.make ~name:"engine: clock is monotone across step" ~count:200
      QCheck.(list_of_size Gen.(int_range 1 40) (float_range 0. 100.))
      (fun delays ->
        let e = Sim.Engine.create () in
        List.iter
          (fun d -> ignore (Sim.Engine.schedule e ~delay:d (fun () -> ())))
          delays;
        let rec monotone last =
          if Sim.Engine.step e then
            let t = Sim.Engine.now e in
            t >= last && monotone t
          else true
        in
        monotone (Sim.Engine.now e));
    QCheck.Test.make ~name:"engine: cancel after fire is a no-op" ~count:200
      QCheck.(int_range 0 40)
      (fun n ->
        let e = Sim.Engine.create () in
        let handles =
          List.init n (fun i ->
              Sim.Engine.schedule e ~delay:(float_of_int (i mod 5)) (fun () -> ()))
        in
        Sim.Engine.run e;
        List.iter Sim.Engine.cancel handles;
        Sim.Engine.pending e = 0
        && Sim.Engine.events_processed e = n
        && not (List.exists Sim.Engine.is_cancelled handles));
    QCheck.Test.make ~name:"engine: run ~until leaves later events queued"
      ~count:200
      QCheck.(
        pair
          (list_of_size Gen.(int_range 1 40) (float_range 0. 100.))
          (float_range 0. 100.))
      (fun (delays, limit) ->
        let e = Sim.Engine.create () in
        List.iter
          (fun d -> ignore (Sim.Engine.schedule e ~delay:d (fun () -> ())))
          delays;
        Sim.Engine.run ~until:limit e;
        let due = List.length (List.filter (fun d -> d <= limit) delays) in
        Sim.Engine.events_processed e = due
        && Sim.Engine.pending e = List.length delays - due
        &&
        (Sim.Engine.run e;
         Sim.Engine.events_processed e = List.length delays));
    QCheck.Test.make ~name:"engine: max_events bounds execution" ~count:200
      QCheck.(pair (int_range 0 60) (int_range 0 60))
      (fun (n, budget) ->
        let e = Sim.Engine.create () in
        for i = 1 to n do
          ignore (Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> ()))
        done;
        Sim.Engine.run ~max_events:budget e;
        let fired = min n budget in
        Sim.Engine.events_processed e = fired
        && Sim.Engine.pending e = n - fired);
  ]

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "split stream pinned" `Quick
            test_rng_split_stream_pinned;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli mean" `Slow test_rng_bernoulli_mean;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "exponential moments" `Slow test_rng_exponential_moments;
          Alcotest.test_case "exponential rejects" `Quick test_rng_exponential_rejects;
          Alcotest.test_case "geometric mean" `Slow test_rng_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_rng_geometric_p1;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "clear" `Quick test_heap_clear;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same instant fifo" `Quick test_engine_same_instant_fifo;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel frees action" `Quick test_engine_cancel_releases_action;
          Alcotest.test_case "cancel leaves depth" `Quick test_engine_cancel_leaves_depth;
          Alcotest.test_case "cancelled moves clock" `Quick test_engine_cancelled_clock;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
          Alcotest.test_case "schedule_at past" `Quick test_engine_schedule_at_past;
          Alcotest.test_case "pending counts live only" `Quick
            test_engine_pending_live_only;
          Alcotest.test_case "hold" `Quick test_engine_hold;
        ] );
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "uniform bounds" `Quick test_latency_uniform_bounds;
          Alcotest.test_case "normal truncation" `Quick test_latency_normal_truncation;
          Alcotest.test_case "shifted exponential floor" `Quick
            test_latency_shifted_exponential_floor;
          Alcotest.test_case "sum" `Quick test_latency_sum_mean;
          Alcotest.test_case "empirical means" `Slow test_latency_mean_estimates;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "clamping" `Quick test_histogram_clamping;
          Alcotest.test_case "pdf integrates" `Quick test_histogram_pdf_integrates;
          Alcotest.test_case "overlap" `Quick test_histogram_overlap;
          Alcotest.test_case "overlap layout mismatch" `Quick
            test_histogram_overlap_layout_mismatch;
          Alcotest.test_case "of_samples" `Quick test_histogram_of_samples;
          Alcotest.test_case "merge splits" `Quick test_histogram_merge_splits;
          Alcotest.test_case "merge layout mismatch" `Quick
            test_histogram_merge_layout_mismatch;
        ] );
      ( "merge laws",
        [ Alcotest.test_case "stats merge (Chan)" `Quick test_stats_merge_chan ] );
      ( "ledger",
        [
          Alcotest.test_case "merge keeps other sections" `Quick
            test_ledger_merge_keeps_other_sections;
          Alcotest.test_case "missing file starts fresh" `Quick test_ledger_merge_fresh;
          Alcotest.test_case "malformed ledger is a positioned error" `Quick
            test_ledger_merge_rejects_malformed;
          Alcotest.test_case "git rev: loose, packed, detached" `Quick test_git_rev;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
