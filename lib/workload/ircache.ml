type config = {
  requests : int;
  users : int;
  catalog : int;
  zipf_exponent : float;
  one_timer_fraction : float;
  duration_s : float;
  seed : int;
}

let default =
  {
    requests = 400_000;
    users = 185;
    catalog = 40_000;
    zipf_exponent = 0.85;
    one_timer_fraction = 0.40;
    duration_s = 86_400.;
    seed = 2007_09_01;
  }

(* Diurnal intensity: a raised cosine with its trough at 4am and peak
   mid-afternoon, never below 15% of peak. *)
let diurnal_weight time_of_day_s =
  let hours = time_of_day_s /. 3600. in
  let phase = (hours -. 16.) /. 24. *. 2. *. Float.pi in
  0.575 +. (0.425 *. cos phase)

let generate cfg =
  if cfg.requests <= 0 || cfg.users <= 0 || cfg.catalog <= 0 then
    invalid_arg "Ircache.generate: non-positive size";
  if cfg.duration_s <= 0. then invalid_arg "Ircache.generate: non-positive duration";
  let rng = Sim.Rng.create cfg.seed in
  let zipf = Zipf.create ~n:cfg.catalog ~s:cfg.zipf_exponent in
  (* Heterogeneous user activity: weight ~ exp(N(0,1)). *)
  let user_weights =
    Array.init cfg.users (fun _ -> exp (Sim.Rng.gaussian rng ~mean:0. ~stddev:1.))
  in
  let user_cdf = Array.make cfg.users 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      user_cdf.(i) <- !acc)
    user_weights;
  let total_user_weight = !acc in
  let pick_user () =
    let u = Sim.Rng.float rng total_user_weight in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if user_cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    search 0 (cfg.users - 1)
  in
  (* Arrival times: thinned uniform proposals keep the diurnal shape
     and produce a sorted sequence directly via order statistics of a
     non-homogeneous process approximated by inverse-CDF on a grid. *)
  let grid = 288 (* 5-minute buckets *) in
  let bucket_cdf = Array.make grid 0. in
  let wacc = ref 0. in
  for b = 0 to grid - 1 do
    let mid = (float_of_int b +. 0.5) /. float_of_int grid *. cfg.duration_s in
    wacc := !wacc +. diurnal_weight mid;
    bucket_cdf.(b) <- !wacc
  done;
  let wtotal = !wacc in
  let sample_time () =
    let u = Sim.Rng.float rng wtotal in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if bucket_cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    let b = search 0 (grid - 1) in
    let bucket_width = cfg.duration_s /. float_of_int grid in
    (float_of_int b *. bucket_width) +. Sim.Rng.float rng bucket_width
  in
  let times = Array.init cfg.requests (fun _ -> sample_time ()) in
  Array.stable_sort Float.compare times;
  (* One-timer ids live above the catalog range.  Each request draws
     its content, then its user. *)
  let next_one_timer = ref cfg.catalog in
  let users = Array.make cfg.requests 0 and contents = Array.make cfg.requests 0 in
  for i = 0 to cfg.requests - 1 do
    contents.(i) <-
      (if Sim.Rng.bernoulli rng cfg.one_timer_fraction then begin
         let id = !next_one_timer in
         incr next_one_timer;
         id
       end
       else Zipf.sample zipf rng - 1);
    users.(i) <- pick_user ()
  done;
  Trace.of_columns ~times ~users ~contents

let pp_config ppf cfg =
  Format.fprintf ppf
    "requests=%d users=%d catalog=%d zipf=%.2f one-timers=%.0f%% span=%.0fh seed=%d"
    cfg.requests cfg.users cfg.catalog cfg.zipf_exponent
    (100. *. cfg.one_timer_fraction)
    (cfg.duration_s /. 3600.)
    cfg.seed
