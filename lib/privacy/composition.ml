let check_args ~eps ~delta ~n =
  if n <= 0 then invalid_arg "Composition: n must be positive";
  if eps < 0. || delta < 0. then invalid_arg "Composition: negative budget"

let basic ~eps ~delta ~n =
  check_args ~eps ~delta ~n;
  (float_of_int n *. eps, float_of_int n *. delta)

let advanced ~eps ~delta ~n ~delta_slack =
  check_args ~eps ~delta ~n;
  if delta_slack <= 0. then invalid_arg "Composition.advanced: slack must be positive";
  let nf = float_of_int n in
  let eps' =
    (eps *. sqrt (2. *. nf *. log (1. /. delta_slack)))
    +. (nf *. eps *. (exp eps -. 1.))
  in
  (eps', (nf *. delta) +. delta_slack)

let exact_joint_delta ~k_dist ~k ~probes ~eps ~n =
  if n <= 0 then invalid_arg "Composition.exact_joint_delta: n must be positive";
  let rec worst x acc =
    if x > k then acc
    else begin
      let d0, d1 = Outputs.state_pair ~k_dist ~x ~probes in
      let j0 = Dist.self_product d0 ~n and j1 = Dist.self_product d1 ~n in
      let joint = Indist.min_delta ~eps:(float_of_int n *. eps) j0 j1 in
      worst (x + 1) (Float.max acc joint)
    end
  in
  worst 1 0.
