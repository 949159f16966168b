(* Splitmix64. Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014. The state is a single
   64-bit counter advanced by the golden-ratio increment; each output is
   a strong 64-bit mix of the counter. *)

type t = {
  mutable state : int64;
  gamma : int64; (* stream increment; odd *)
  mutable spare_gaussian : float option;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Bits set in a 32-bit value held in a native int (SWAR count). *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

(* Mix used to derive gammas for split generators; must differ from
   [mix64] to avoid correlations between state and gamma streams. *)
let mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  let z = Int64.logor z 1L in
  (* Reject gammas with too few bit transitions, as in the reference
     implementation. *)
  let transitions = Int64.logxor z (Int64.shift_right_logical z 1) in
  (* Counted on the two 32-bit halves as native ints, so a split
     allocates nothing beyond the new generator. *)
  let lo = Int64.to_int (Int64.logand transitions 0xFFFFFFFFL) in
  let hi = Int64.to_int (Int64.shift_right_logical transitions 32) in
  if popcount32 lo + popcount32 hi < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL
  else z

let create seed =
  { state = mix64 (Int64.of_int seed); gamma = golden_gamma; spare_gaussian = None }

let copy t = { state = t.state; gamma = t.gamma; spare_gaussian = t.spare_gaussian }

let next_seed t =
  t.state <- Int64.add t.state t.gamma;
  t.state

let bits64 t = mix64 (next_seed t)

let split t =
  let s = bits64 t in
  let g = mix_gamma (next_seed t) in
  { state = s; gamma = g; spare_gaussian = None }

(* Uniform int in [0, bound) by rejection on the top 62 bits (OCaml's
   native int is 63-bit; we keep everything nonnegative). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = max_int in
  let rec draw () =
    let r = Int64.to_int (bits64 t) land mask in
    let v = r mod bound in
    (* Reject the final partial block to remove modulo bias. *)
    if r - v > mask - bound + 1 then draw () else v
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random mantissa bits. *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992. *. bound

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t 1. < p

let gaussian t ~mean ~stddev =
  match t.spare_gaussian with
  | Some g ->
    t.spare_gaussian <- None;
    mean +. (stddev *. g)
  | None ->
    (* Box–Muller; re-draw u1 until nonzero so log is finite. *)
    let rec nonzero () =
      let u = float t 1. in
      if u > 0. then u else nonzero ()
    in
    let u1 = nonzero () and u2 = float t 1. in
    let r = sqrt (-2. *. log u1) in
    let theta = 2. *. Float.pi *. u2 in
    t.spare_gaussian <- Some (r *. sin theta);
    mean +. (stddev *. r *. cos theta)

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let rec nonzero () =
    let u = float t 1. in
    if u > 0. then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let geometric t ~p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p must be in (0, 1]";
  if p = 1. then 0
  else
    (* Inverse transform: floor(log U / log (1 - p)). *)
    let rec nonzero () =
      let u = float t 1. in
      if u > 0. then u else nonzero ()
    in
    int_of_float (Float.floor (log (nonzero ()) /. log (1. -. p)))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t n k =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Selection sampling (Knuth 3.4.2, Algorithm S): one pass, O(n). *)
  let rec go i remaining acc =
    if remaining = 0 then List.rev acc
    else if bernoulli t (float_of_int remaining /. float_of_int (n - i)) then
      go (i + 1) (remaining - 1) (i :: acc)
    else go (i + 1) remaining acc
  in
  go 0 k []
