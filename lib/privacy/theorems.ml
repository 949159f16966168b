let utility_of_misses ~c ~misses = 1. -. (misses /. float_of_int c)

let exact_expected_misses ~k_dist ~c =
  if c <= 0 then invalid_arg "Theorems.exact_expected_misses: c must be positive";
  Dist.expect k_dist ~f:(fun r -> float_of_int (min (r + 1) c))

module Uniform = struct
  (* Definition IV.1's delta is Pr(D1 in Omega2) + Pr(D2 in Omega2),
     which ranges over [0, 2]; do not clamp at 1. *)
  let delta ~k ~domain =
    if domain <= 0 then invalid_arg "Uniform.delta: empty domain";
    2. *. float_of_int k /. float_of_int domain

  let domain_for_delta ~k ~delta =
    if delta <= 0. then invalid_arg "Uniform.domain_for_delta: delta must be positive";
    if k <= 0 then invalid_arg "Uniform.domain_for_delta: k must be positive";
    int_of_float (Float.ceil (2. *. float_of_int k /. delta))

  let expected_misses_paper ~c ~domain =
    if c <= 0 || domain <= 0 then invalid_arg "Uniform.expected_misses_paper";
    let cf = float_of_int c and kf = float_of_int domain in
    if c < domain then cf *. (1. -. ((cf +. 1.) /. (2. *. kf))) else kf /. 2.

  let expected_misses_exact ~c ~domain =
    if c <= 0 || domain <= 0 then invalid_arg "Uniform.expected_misses_exact";
    let cf = float_of_int c and kf = float_of_int domain in
    if c <= domain then cf *. (1. -. ((cf -. 1.) /. (2. *. kf)))
    else (kf +. 1.) /. 2.

  let utility_paper ~c ~domain =
    utility_of_misses ~c ~misses:(expected_misses_paper ~c ~domain)

  let utility_exact ~c ~domain =
    utility_of_misses ~c ~misses:(expected_misses_exact ~c ~domain)

  let k_dist ~domain = Dist.uniform_int domain
end

module Exponential = struct
  let epsilon ~k ~alpha =
    if alpha <= 0. || alpha > 1. then invalid_arg "Exponential.epsilon: bad alpha";
    -.float_of_int k *. log alpha

  let alpha_for_epsilon ~k ~eps =
    if eps < 0. then invalid_arg "Exponential.alpha_for_epsilon: negative eps";
    exp (-.eps /. float_of_int k)

  let delta ~k ~alpha ~domain =
    if domain <= 0 then invalid_arg "Exponential.delta: empty domain";
    if alpha >= 1. -. 1e-12 then Uniform.delta ~k ~domain (* uniform limit *)
    else
    let kf = float_of_int k and bigk = float_of_int domain in
    let ak = alpha ** kf in
    let abigk = alpha ** bigk in
    let abigk_minus_k = alpha ** (bigk -. kf) in
    (1. -. ak +. abigk_minus_k -. abigk) /. (1. -. abigk)

  let delta_limit ~k ~alpha = 1. -. (alpha ** float_of_int k)

  let domain_for_delta ~k ~alpha ~delta:target =
    if target <= 0. then invalid_arg "Exponential.domain_for_delta";
    if delta_limit ~k ~alpha > target +. 1e-12 then None
    else begin
      (* delta is decreasing in K; exponential search then binary. *)
      let f domain = delta ~k ~alpha ~domain in
      let rec upper domain =
        if f domain <= target +. 1e-12 then domain
        else if domain > 1 lsl 40 then domain (* give up growing; caller gets best effort *)
        else upper (2 * domain)
      in
      let hi = upper (max 2 (2 * k)) in
      let rec bisect lo hi =
        (* invariant: f hi <= target < f lo (roughly) *)
        if hi - lo <= 1 then hi
        else
          let mid = (lo + hi) / 2 in
          if f mid <= target +. 1e-12 then bisect lo mid else bisect mid hi
      in
      let lo = max 1 k in
      Some (if f lo <= target +. 1e-12 then lo else bisect lo hi)
    end

  let expected_misses_paper ~c ~alpha ~domain =
    if c <= 0 || domain <= 0 then invalid_arg "Exponential.expected_misses_paper";
    if alpha >= 1. -. 1e-12 then Uniform.expected_misses_paper ~c ~domain
    else
    let cf = float_of_int c and bigk = float_of_int domain in
    let ac = alpha ** cf in
    let abigk = alpha ** bigk in
    if c < domain then
      ((1. -. ac -. (cf *. abigk)) /. (1. -. abigk))
      +. (alpha *. (1. -. ac) /. ((1. -. abigk) *. (1. -. alpha)))
    else
      ((1. -. ((bigk +. 1.) *. abigk)) /. (1. -. abigk)) +. (alpha /. (1. -. alpha))

  let expected_misses_exact ~c ~alpha ~domain =
    exact_expected_misses ~k_dist:(Dist.geometric_truncated ~alpha ~domain) ~c

  let expected_misses_paper_unbounded ~c ~alpha =
    if c <= 0 then invalid_arg "Exponential.expected_misses_paper_unbounded";
    if alpha >= 1. then float_of_int c
    else (1. -. (alpha ** float_of_int c)) /. (1. -. alpha)

  let utility_paper ~c ~alpha ~domain =
    utility_of_misses ~c ~misses:(expected_misses_paper ~c ~alpha ~domain)

  let utility_exact ~c ~alpha ~domain =
    utility_of_misses ~c ~misses:(expected_misses_exact ~c ~alpha ~domain)

  let utility_paper_unbounded ~c ~alpha =
    utility_of_misses ~c ~misses:(expected_misses_paper_unbounded ~c ~alpha)

  let k_dist ~alpha ~domain = Dist.geometric_truncated ~alpha ~domain
end
