(* Deterministic trial fan-out over a fixed pool of OCaml 5 domains.

   Determinism strategy: all per-trial randomness is derived on the
   calling domain before any worker starts (one [Rng.split] per trial,
   in trial order), and each trial writes its result into its own slot
   of a pre-sized array.  Workers claim trial indices from an atomic
   counter, so scheduling affects only *when* a slot is filled, never
   *what* it contains or where it lands. *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Both fan-out axes — trial workers here, shard domains in
   [Sim.Shard] — multiply, and each sharded trial spins its shard
   domains concurrently with every other trial's.  [Shard.run] worker
   domains busy-wait at window barriers, so oversubscription does not
   just time-slice: spinning domains steal the cycles the simulating
   domains need, and throughput collapses.  The budget below allows
   either axis alone to reach the hardware count (a lone sharded trial
   may legitimately use every core, whatever [jobs] clamping already
   did), but refuses combinations whose product exceeds it. *)
let check_domains ~jobs ~shards =
  if jobs < 1 then invalid_arg "Parallel.check_domains: jobs < 1";
  if shards < 1 then invalid_arg "Parallel.check_domains: shards < 1";
  let avail = default_jobs () in
  let budget = max avail (max jobs shards) in
  if jobs * shards > budget then
    Error
      (Printf.sprintf
         "domain budget exceeded: %d trial worker(s) x %d shard(s) = %d \
          domains, but only %d hardware thread(s) are available; lower \
          --jobs or --shards so their product fits"
         jobs shards (jobs * shards) avail)
  else Ok ()

(* Worker protocol: claim the next unclaimed index until none remain.
   The first exception (by claim order on that worker) is captured and
   re-raised on the caller once every domain has been joined, so no
   domain is left running when [map] returns. *)
let pooled_map ~jobs n f =
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f i with
        | v -> results.(i) <- Some v
        | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          (* Keep the first failure; later ones lose the race. *)
          ignore (Atomic.compare_and_set failure None (Some (exn, bt))));
        if Atomic.get failure = None then loop ()
      end
    in
    loop ()
  in
  let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  (match Atomic.get failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ());
  Array.map
    (function
      | Some v -> v
      | None ->
        (* Unreachable: every index below [n] is claimed exactly once
           and either filled or recorded as a failure. *)
        assert false)
    results

let map ?jobs n f =
  if n < 0 then invalid_arg "Parallel.map: negative size";
  let jobs =
    match jobs with Some j -> max 1 (min j n) | None -> max 1 (min (default_jobs ()) n)
  in
  if n = 0 then [||]
  else if jobs = 1 || n = 1 then Array.init n f
  else pooled_map ~jobs n f

let run ?jobs ~seed ~trials f =
  if trials < 0 then invalid_arg "Parallel.run: negative trials";
  (* Split every trial generator up front, in trial order, on the
     calling domain: trial [i]'s stream depends only on [seed] and [i]. *)
  let root = Rng.create seed in
  let rngs = Array.init trials (fun _ -> Rng.split root) in
  map ?jobs trials (fun i -> f ~trial:i ~rng:rngs.(i))

let run_reduce ?jobs ~seed ~trials ~merge ~init f =
  Array.fold_left merge init (run ?jobs ~seed ~trials f)
