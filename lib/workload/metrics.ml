type row = {
  policy_label : string;
  cache_capacity : int;
  private_fraction : float;
  outcome : Replay.outcome;
}

let label_of_kind kind =
  (* Build a throwaway policy purely to reuse its display name. *)
  Core.Policy.label (Core.Policy.create ~rng:(Sim.Rng.create 0) kind)

let run_one trace ~kind ~capacity ~fraction =
  let config =
    {
      Replay.cache_capacity = capacity;
      eviction = Ndn.Eviction.Lru;
      policy = kind;
      grouping = Core.Grouping.By_content;
      private_mode = Replay.Per_content fraction;
      seed = 99;
    }
  in
  {
    policy_label = label_of_kind kind;
    cache_capacity = capacity;
    private_fraction = fraction;
    outcome = Replay.replay trace config;
  }

(* Sweeps fan the independent (config, capacity) replays out over
   domains; each cell is fully determined by its own seed, and results
   are re-assembled in grid order, so the table is identical for any
   [jobs]. *)
let grid_map ?jobs outer inner f =
  let outer = Array.of_list outer and inner = Array.of_list inner in
  let n_inner = Array.length inner in
  Sim.Parallel.map ?jobs
    (Array.length outer * n_inner)
    (fun i -> f outer.(i / n_inner) inner.(i mod n_inner))
  |> Array.to_list

let sweep trace ~cache_sizes ~policies ?(private_fraction = 0.2) ?jobs () =
  grid_map ?jobs policies cache_sizes (fun kind capacity ->
      run_one trace ~kind ~capacity ~fraction:private_fraction)

let sweep_private_fraction trace ~cache_sizes ~policy ~fractions ?jobs () =
  grid_map ?jobs fractions cache_sizes (fun fraction capacity ->
      run_one trace ~kind:policy ~capacity ~fraction)

(* --- mergeable multi-trial aggregate --- *)

type agg = {
  trials : int;
  requests : int;
  observable_hits : int;
  real_hits : int;
  hidden_hits : int;
  private_requests : int;
  agg_evictions : int;
  hit_rate_stats : Sim.Stats.t;
}

let agg_empty () =
  {
    trials = 0;
    requests = 0;
    observable_hits = 0;
    real_hits = 0;
    hidden_hits = 0;
    private_requests = 0;
    agg_evictions = 0;
    hit_rate_stats = Sim.Stats.create ();
  }

let agg_of_outcome (o : Replay.outcome) =
  let hit_rate_stats = Sim.Stats.create () in
  Sim.Stats.add hit_rate_stats (Replay.observable_hit_rate o);
  {
    trials = 1;
    requests = o.Replay.requests;
    observable_hits = o.Replay.observable_hits;
    real_hits = o.Replay.real_hits;
    hidden_hits = o.Replay.hidden_hits;
    private_requests = o.Replay.private_requests;
    agg_evictions = o.Replay.evictions;
    hit_rate_stats;
  }

let merge a b =
  {
    trials = a.trials + b.trials;
    requests = a.requests + b.requests;
    observable_hits = a.observable_hits + b.observable_hits;
    real_hits = a.real_hits + b.real_hits;
    hidden_hits = a.hidden_hits + b.hidden_hits;
    private_requests = a.private_requests + b.private_requests;
    agg_evictions = a.agg_evictions + b.agg_evictions;
    hit_rate_stats = Sim.Stats.merge a.hit_rate_stats b.hit_rate_stats;
  }

let agg_observable_hit_rate a =
  if a.requests = 0 then 0.
  else float_of_int a.observable_hits /. float_of_int a.requests

let replay_trials trace config ~trials ?jobs () =
  (* Trial [i] replays under seed [config.seed + i]: the ensemble is a
     pure function of the base seed, independent of [jobs]. *)
  Sim.Parallel.map ?jobs trials (fun i ->
      agg_of_outcome
        (Replay.replay trace { config with Replay.seed = config.Replay.seed + i }))
  |> Array.fold_left merge (agg_empty ())

let pp_agg ppf a =
  Format.fprintf ppf
    "trials=%d requests=%d pooled-hit-rate=%.4f per-trial mean=%.4f sd=%.4f"
    a.trials a.requests (agg_observable_hit_rate a)
    (Sim.Stats.mean a.hit_rate_stats)
    (Sim.Stats.stddev a.hit_rate_stats)

let cache_size_label = function 0 -> "Inf" | n -> string_of_int n

let pp_table ~series_of ppf rows =
  let series =
    List.fold_left
      (fun acc row ->
        let s = series_of row in
        if List.mem s acc then acc else acc @ [ s ])
      [] rows
  in
  let sizes =
    List.fold_left
      (fun acc row ->
        if List.mem row.cache_capacity acc then acc else acc @ [ row.cache_capacity ])
      [] rows
  in
  let width =
    List.fold_left (fun acc s -> max acc (String.length s)) 10 series
  in
  Format.fprintf ppf "%-10s" "CacheSize";
  List.iter (fun s -> Format.fprintf ppf " | %*s" width s) series;
  Format.fprintf ppf "@.";
  List.iter
    (fun size ->
      Format.fprintf ppf "%-10s" (cache_size_label size);
      List.iter
        (fun s ->
          match
            List.find_opt
              (fun row -> row.cache_capacity = size && series_of row = s)
              rows
          with
          | Some row ->
            Format.fprintf ppf " | %*.2f" width
              (100. *. Replay.observable_hit_rate row.outcome)
          | None -> Format.fprintf ppf " | %*s" width "-")
        series;
      Format.fprintf ppf "@.")
    sizes
