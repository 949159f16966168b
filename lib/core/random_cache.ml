type output = Hit | Miss

type state = { k_c : int; mutable c_c : int }

type t = {
  kdist : Kdist.t;
  rng : Sim.Rng.t;
  table : state Ndn.Name.Tbl.t;
  tracer : Sim.Trace.t;
  label : string;
  clock : unit -> float;
}

(* Every Random-Cache is built here, so a threshold law that cannot be
   sampled is refused once, before any request draws from it. *)
let check_kdist = function
  | Kdist.Constant k when k < 0 -> invalid_arg "Random_cache.create: Constant k with k < 0"
  | Kdist.Uniform d when d <= 0 -> invalid_arg "Random_cache.create: Uniform d with d <= 0"
  | Kdist.Weighted [] -> invalid_arg "Random_cache.create: empty Weighted distribution"
  | Kdist.Weighted pairs when not (List.fold_left (fun acc (_, w) -> acc +. w) 0. pairs > 0.)
    ->
    invalid_arg "Random_cache.create: Weighted total weight is not positive"
  | Kdist.Truncated_geometric { domain; _ } when domain <= 0 ->
    invalid_arg "Random_cache.create: Truncated_geometric domain <= 0"
  | Kdist.Constant _ | Kdist.Uniform _ | Kdist.Weighted _ | Kdist.Truncated_geometric _ -> ()

let create ?(tracer = Sim.Trace.disabled) ?(label = "")
    ?(clock = fun () -> 0.) ~kdist ~rng () =
  check_kdist kdist;
  { kdist; rng; table = Ndn.Name.Tbl.create 256; tracer; label; clock }

let trace t kind key attrs =
  if Sim.Trace.enabled t.tracer then
    Sim.Trace.emit t.tracer
      {
        Sim.Trace.time = t.clock ();
        node = t.label;
        kind;
        name = Ndn.Name.to_string key;
        attrs;
      }

let on_request t key =
  match Ndn.Name.Tbl.find_opt t.table key with
  | None ->
    (* Algorithm 1, lines 4-8. *)
    let k_c = Kdist.sample t.kdist t.rng in
    Ndn.Name.Tbl.replace t.table key { k_c; c_c = 0 };
    trace t Sim.Trace.Rc_draw key [ ("k", string_of_int k_c) ];
    Miss
  | Some st ->
    (* Algorithm 1, lines 10-14. *)
    st.c_c <- st.c_c + 1;
    if st.c_c <= st.k_c then begin
      trace t Sim.Trace.Rc_fake_miss key
        [ ("count", string_of_int st.c_c); ("k", string_of_int st.k_c) ];
      Miss
    end
    else begin
      trace t Sim.Trace.Rc_hit key
        [ ("count", string_of_int st.c_c); ("k", string_of_int st.k_c) ];
      Hit
    end

let request_count t key =
  match Ndn.Name.Tbl.find_opt t.table key with
  | None -> 0
  | Some st -> st.c_c

let threshold t key =
  match Ndn.Name.Tbl.find_opt t.table key with
  | None -> None
  | Some st -> Some st.k_c

let tracked t = Ndn.Name.Tbl.length t.table

let forget t key = Ndn.Name.Tbl.remove t.table key

let pp_output ppf = function
  | Hit -> Format.pp_print_string ppf "hit"
  | Miss -> Format.pp_print_string ppf "miss"

let output_equal a b =
  match (a, b) with Hit, Hit | Miss, Miss -> true | Hit, Miss | Miss, Hit -> false
