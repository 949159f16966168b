(* Timing on a host whose speed is not constant.

   The host this benchmark was built on (2 vCPUs, Intel Xeon, shared
   with other tenants) switches for seconds to minutes at a time between
   speeds up to 2x apart.  A pure ALU loop barely notices; code that
   allocates and chases pointers, like the simulator, slows with the
   memory traffic of the neighbours.  Neither the median nor the minimum
   of raw op times is steady under that: a run may hold no fast moment
   at all.

   So every timed sample is paired with a fixed reference kernel run
   right before and right after it, and reported in kernel units: its
   time over the mean of the two kernel times.  The kernel is allocation
   churn over a ~1 MB live set, the same mix of minor allocation,
   promotion and pointer writes that dominates a simulated op, so both
   slow down together and the ratio stays put.  A ratio is turned back
   into seconds with [kernel_ref_s], the kernel's time on that host when
   it is quiet: metrics read as seconds at the reference host speed.

   Every timed sample starts after a full major GC, so it never pays
   for the garbage of the previous one. *)

let now_ns = Monotonic_clock.now
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* Bookkeeping for the invariants the provenance record reports. *)
let samples = ref 0
let samples_after_major = ref 0
let shortest_sample_s = ref Float.infinity

let gc () =
  let before = (Gc.quick_stat ()).Gc.major_collections in
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.major_collections > before

let timed f =
  let after_major = gc () in
  let t0 = now_ns () in
  let x = f () in
  let s = since_s t0 in
  incr samples;
  if after_major then incr samples_after_major;
  shortest_sample_s := Float.min !shortest_sample_s s;
  (s, x)

(* The reference kernel.  Its body is frozen: changing it changes what
   a kernel unit is and so every time metric. *)
let kernel () =
  let live = Array.make 4096 [] in
  for i = 0 to 79_999 do
    let j = i * 2654435761 land 4095 in
    live.(j) <- (i, string_of_int i) :: (if i land 7 = 0 then [] else live.(j))
  done;
  ignore (Sys.opaque_identity live)

(* [kernel]'s time on the reference host when it is quiet (2-vCPU Intel
   Xeon, OCaml 5.1.1: 7.2-8.2 ms).  It only converts kernel units to
   seconds; what matters is that it never changes. *)
let kernel_ref_s = 0.0080

(* Every kernel time of the run, for the provenance record. *)
let kernel_times = ref []

let kernel_s () =
  let s, () = timed kernel in
  kernel_times := s :: !kernel_times;
  s

(* [paired f] times [f] between two kernel runs and returns its time in
   seconds, its time in kernel units, and its result. *)
let paired f =
  let k0 = kernel_s () in
  let s, x = timed f in
  let k1 = kernel_s () in
  (s, s /. ((k0 +. k1) /. 2.), x)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
