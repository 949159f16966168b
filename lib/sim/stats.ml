type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the running mean *)
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let add_list t xs = List.iter (add t) xs

let count t = t.n

let mean t = if t.n = 0 then nan else t.mean

let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t = t.min

let max t = t.max

let total t = t.total

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    {
      n;
      mean;
      m2;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
      total = a.total +. b.total;
    }
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1. -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let median xs = percentile xs 50.

let mean_of xs =
  let t = create () in
  Array.iter (add t) xs;
  mean t
