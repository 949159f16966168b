type config = {
  requests : int;
  users : int;
  fresh_fraction : float;
  depth_exponent : float;
  max_depth : int;
  duration_s : float;
  seed : int;
}

let default =
  {
    requests = 200_000;
    users = 185;
    fresh_fraction = 0.35;
    depth_exponent = 1.2;
    max_depth = 4096;
    duration_s = 86_400.;
    seed = 1977;
  }

let generate cfg =
  if cfg.requests <= 0 || cfg.users <= 0 || cfg.max_depth <= 0 then
    invalid_arg "Lru_stack.generate: non-positive size";
  if cfg.fresh_fraction < 0. || cfg.fresh_fraction > 1. then
    invalid_arg "Lru_stack.generate: fresh_fraction out of range";
  if cfg.duration_s <= 0. then invalid_arg "Lru_stack.generate: non-positive duration";
  let rng = Sim.Rng.create cfg.seed in
  let depth_law = Zipf.create ~n:cfg.max_depth ~s:cfg.depth_exponent in
  (* The stack: most-recent at index [top-1].  Move-to-front via
     shifting; expected depth is small under a heavy-tailed law. *)
  let stack = ref (Array.make 1024 0) in
  let top = ref 0 in
  let next_fresh = ref 0 in
  let push id =
    if !top = Array.length !stack then begin
      let bigger = Array.make (2 * !top) 0 in
      Array.blit !stack 0 bigger 0 !top;
      stack := bigger
    end;
    !stack.(!top) <- id;
    incr top
  in
  let reference_depth d =
    (* d = 1 is the most recent object. *)
    let idx = !top - d in
    let id = !stack.(idx) in
    Array.blit !stack (idx + 1) !stack idx (!top - idx - 1);
    !stack.(!top - 1) <- id;
    id
  in
  let interval = cfg.duration_s /. float_of_int cfg.requests in
  let users = Array.make cfg.requests 0 and contents = Array.make cfg.requests 0 in
  for i = 0 to cfg.requests - 1 do
    contents.(i) <-
      (if !top = 0 || Sim.Rng.bernoulli rng cfg.fresh_fraction then begin
         let id = !next_fresh in
         incr next_fresh;
         push id;
         id
       end
       else begin
         let d = min !top (Zipf.sample depth_law rng) in
         reference_depth d
       end);
    users.(i) <- Sim.Rng.int rng cfg.users
  done;
  Trace.of_columns
    ~times:(Array.init cfg.requests (fun i -> float_of_int i *. interval))
    ~users ~contents
