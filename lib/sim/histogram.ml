type t = {
  lo : float;
  hi : float;
  nbins : int;
  width : float;
  counts : int array;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: empty range";
  {
    lo;
    hi;
    nbins = bins;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0;
    total = 0;
  }

let add t x =
  let idx = int_of_float (Float.floor ((x -. t.lo) /. t.width)) in
  let idx = if idx < 0 then 0 else if idx >= t.nbins then t.nbins - 1 else idx in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.total <- t.total + 1

let of_samples ?(bins = 40) xs =
  if Array.length xs = 0 then invalid_arg "Histogram.of_samples: empty array";
  let lo = Array.fold_left Float.min infinity xs in
  let hi = Array.fold_left Float.max neg_infinity xs in
  (* Widen degenerate ranges so every sample has a bin. *)
  let hi = if hi <= lo then lo +. 1. else hi +. (1e-9 *. (hi -. lo)) in
  let t = create ~lo ~hi ~bins in
  Array.iter (add t) xs;
  t

let count t = t.total

let bins t = t.nbins

let bin_edges t =
  Array.init t.nbins (fun i ->
      let l = t.lo +. (float_of_int i *. t.width) in
      (l, l +. t.width))

let bin_center t i = t.lo +. ((float_of_int i +. 0.5) *. t.width)

let counts t = Array.copy t.counts

let probability t i =
  if t.total = 0 then 0. else float_of_int t.counts.(i) /. float_of_int t.total

let pdf t = Array.init t.nbins (fun i -> probability t i /. t.width)

let same_layout a b = a.lo = b.lo && a.hi = b.hi && a.nbins = b.nbins

let merge a b =
  if not (same_layout a b) then invalid_arg "Histogram.merge: layouts differ";
  let t = create ~lo:a.lo ~hi:a.hi ~bins:a.nbins in
  for i = 0 to a.nbins - 1 do
    t.counts.(i) <- a.counts.(i) + b.counts.(i)
  done;
  t.total <- a.total + b.total;
  t

let merge_into ~into b =
  if not (same_layout into b) then invalid_arg "Histogram.merge_into: layouts differ";
  for i = 0 to into.nbins - 1 do
    into.counts.(i) <- into.counts.(i) + b.counts.(i)
  done;
  into.total <- into.total + b.total

let equal a b = same_layout a b && a.counts = b.counts && a.total = b.total

let pp_two ~labels ppf (a, b) =
  if not (same_layout a b) then invalid_arg "Histogram.pp_two: layouts differ";
  let width = 30 in
  let la, lb = labels in
  let maxa = Array.fold_left max 1 a.counts and maxb = Array.fold_left max 1 b.counts in
  Format.fprintf ppf "%10s  %-*s | %-*s@." "center" width la width lb;
  for i = 0 to a.nbins - 1 do
    let bar_a = a.counts.(i) * width / maxa in
    let bar_b = b.counts.(i) * width / maxb in
    Format.fprintf ppf "%10.3f  %-*s | %-*s@." (bin_center a i)
      width (String.make bar_a '#')
      width (String.make bar_b '*')
  done

let overlap a b =
  if not (same_layout a b) then invalid_arg "Histogram.overlap: layouts differ";
  let acc = ref 0. in
  for i = 0 to a.nbins - 1 do
    acc := !acc +. Float.min (probability a i) (probability b i)
  done;
  !acc
