type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Normal of { mean : float; stddev : float; min : float }
  | Shifted_exponential of { shift : float; rate : float }
  | Sum of t list

let rec sample t rng =
  let v =
    match t with
    | Constant d -> d
    | Uniform { lo; hi } -> lo +. Rng.float rng (hi -. lo)
    | Normal { mean; stddev; min } ->
      let rec draw () =
        let x = Rng.gaussian rng ~mean ~stddev in
        if x >= min then x else draw ()
      in
      draw ()
    | Shifted_exponential { shift; rate } -> shift +. Rng.exponential rng ~rate
    | Sum parts -> List.fold_left (fun acc p -> acc +. sample p rng) 0. parts
  in
  if v < 0. then 0. else v

(* Greatest lower bound of [sample]: no draw can come out below this.
   [Sim.Shard] derives its conservative lookahead window from the
   minimum over all cross-shard links, so the bound must be sound
   (never above any possible sample) — mirroring [sample]'s final
   clamp, it is never negative. *)
let lower_bound t =
  let rec lb = function
    | Constant d -> d
    | Uniform { lo; _ } -> lo
    | Normal { min; _ } -> min
    | Shifted_exponential { shift; _ } -> shift
    | Sum parts -> List.fold_left (fun acc p -> acc +. lb p) 0. parts
  in
  let v = lb t in
  if v < 0. then 0. else v

let rec mean = function
  | Constant d -> d
  | Uniform { lo; hi } -> (lo +. hi) /. 2.
  | Normal { mean = m; _ } -> m
  | Shifted_exponential { shift; rate } -> shift +. (1. /. rate)
  | Sum parts -> List.fold_left (fun acc p -> acc +. mean p) 0. parts

(* The constants below are chosen so that the Figure 3 topologies built in
   [Ndn.Network] produce RTT histograms spanning the same ranges as the
   paper's measurements. *)

let fast_ethernet = Normal { mean = 0.25; stddev = 0.06; min = 0.05 }
