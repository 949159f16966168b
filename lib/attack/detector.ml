type verdict = Hit | Miss

type t = {
  threshold : float;
  hits_below : bool; (* are hits on the fast (below-threshold) side? *)
  training_accuracy : float;
}

let threshold t = t.threshold
let training_accuracy t = t.training_accuracy

(* Scan every candidate boundary (midpoints between adjacent distinct
   observations in the pooled sorted samples) and keep the one with the
   best balanced accuracy.  O(n log n) via prefix counts. *)
let train ~hit_samples ~miss_samples =
  let nh = Array.length hit_samples and nm = Array.length miss_samples in
  if nh = 0 || nm = 0 then invalid_arg "Detector.train: empty sample set";
  let tagged =
    Array.append
      (Array.map (fun x -> (x, true)) hit_samples)
      (Array.map (fun x -> (x, false)) miss_samples)
  in
  Array.sort (fun (a, _) (b, _) -> compare a b) tagged;
  let nhf = float_of_int nh and nmf = float_of_int nm in
  (* Accuracy of the rule "hit iff sample <= boundary after index i"
     (boundary between tagged.(i) and tagged.(i+1)); i = -1 means
     "nothing classified as hit". *)
  let best_acc = ref 0. and best_idx = ref (-1) and best_flip = ref false in
  let hits_seen = ref 0 and misses_seen = ref 0 in
  let consider i =
    let h = float_of_int !hits_seen and m = float_of_int !misses_seen in
    (* hits below boundary: correct hits = h, correct misses = nm - m *)
    let acc_below = ((h /. nhf) +. ((nmf -. m) /. nmf)) /. 2. in
    let acc_above = (((nhf -. h) /. nhf) +. (m /. nmf)) /. 2. in
    if acc_below > !best_acc then begin
      best_acc := acc_below;
      best_idx := i;
      best_flip := false
    end;
    if acc_above > !best_acc then begin
      best_acc := acc_above;
      best_idx := i;
      best_flip := true
    end
  in
  consider (-1);
  Array.iteri
    (fun i (x, is_hit) ->
      if is_hit then incr hits_seen else incr misses_seen;
      (* Only place boundaries between distinct values. *)
      if i = Array.length tagged - 1 || fst tagged.(i + 1) > x then consider i)
    tagged;
  let boundary =
    if !best_idx < 0 then fst tagged.(0) -. 1.
    else if !best_idx = Array.length tagged - 1 then fst tagged.(!best_idx) +. 1.
    else (fst tagged.(!best_idx) +. fst tagged.(!best_idx + 1)) /. 2.
  in
  { threshold = boundary; hits_below = not !best_flip; training_accuracy = !best_acc }

let classify t x =
  let below = x <= t.threshold in
  if below = t.hits_below then Hit else Miss

let evaluate t ~hit_samples ~miss_samples =
  let count pred arr =
    Array.fold_left (fun acc x -> if pred x then acc + 1 else acc) 0 arr
  in
  let correct_hits = count (fun x -> classify t x = Hit) hit_samples in
  let correct_misses = count (fun x -> classify t x = Miss) miss_samples in
  let frac n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  (frac correct_hits (Array.length hit_samples)
  +. frac correct_misses (Array.length miss_samples))
  /. 2.

let split fraction arr =
  let n = Array.length arr in
  let k = max 1 (min (n - 1) (int_of_float (fraction *. float_of_int n))) in
  (Array.sub arr 0 k, Array.sub arr k (n - k))

let success_rate ~hit_samples ~miss_samples () =
  let h_train, h_test = split 0.5 hit_samples in
  let m_train, m_test = split 0.5 miss_samples in
  let t = train ~hit_samples:h_train ~miss_samples:m_train in
  evaluate t ~hit_samples:h_test ~miss_samples:m_test
