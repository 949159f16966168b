type t = { n : int; cdf : float array }

(* The CDF embeds the harmonic normalizer H(n, s) = sum r^-s; computing
   it is the O(n) part of [create].  At aggregate-consumer scale every
   edge router wants the same law — 10k routers x a 100k-entry catalog
   would recompute the same 100k-term harmonic sum 10k times — so the
   table is memoized per (n, s).  The memo is per-domain (Domain.DLS),
   the same pattern as the Name intern table: Sim.Parallel trial
   domains each build their own copy, so no cross-domain sharing, no
   locks, and byte-identical results for any --jobs.  Entries are
   immutable after construction, which is what makes handing the same
   array to every caller sound. *)
let memo_cap = 64

let memo : (int * float, float array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let compute_cdf ~n ~s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 1 to n do
    acc := !acc +. (1. /. (float_of_int r ** s));
    cdf.(r - 1) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  cdf

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0. then invalid_arg "Zipf.create: negative exponent";
  let tbl = Domain.DLS.get memo in
  let key = (n, s) in
  let cdf =
    match Hashtbl.find_opt tbl key with
    | Some cdf -> cdf
    | None ->
      let cdf = compute_cdf ~n ~s in
      (* Bound the memo so pathological churn over many distinct laws
         (property tests, parameter sweeps) cannot leak arrays forever;
         dropping the memo only costs recomputation, never changes a
         result. *)
      if Hashtbl.length tbl >= memo_cap then Hashtbl.reset tbl;
      Hashtbl.add tbl key cdf;
      cdf
  in
  { n; cdf }

let sample t rng =
  let u = Sim.Rng.float rng 1. in
  (* Smallest index with cdf >= u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (t.n - 1) + 1

let prob t rank =
  if rank < 1 || rank > t.n then invalid_arg "Zipf.prob: rank out of range";
  if rank = 1 then t.cdf.(0) else t.cdf.(rank - 1) -. t.cdf.(rank - 2)

let head_mass t k =
  if k <= 0 then 0. else if k >= t.n then 1. else t.cdf.(k - 1)
