type kind = No_privacy | Always_delay | Random_cache of Kdist.t

type t = {
  kind : kind;
  grouping : Grouping.t;
  registry : Ndn.Name.t Ndn.Name.Tbl.t;
  algorithm : Random_cache.t option;
}

let create ?(grouping = Grouping.By_content) ~rng kind =
  let algorithm =
    match kind with
    | Random_cache kdist -> Some (Random_cache.create ~kdist ~rng ())
    | No_privacy | Always_delay -> None
  in
  { kind; grouping; registry = Ndn.Name.Tbl.create 64; algorithm }

let label t =
  match t.kind with
  | No_privacy -> "No Privacy"
  | Always_delay -> "Always Delay Private Content"
  | Random_cache (Kdist.Uniform _) -> "Uniform-Random-Cache"
  | Random_cache (Kdist.Truncated_geometric _) -> "Exponential-Random-Cache"
  | Random_cache (Kdist.Constant _) -> "Naive-Threshold-Cache"
  | Random_cache (Kdist.Weighted _) -> "Custom-Random-Cache"

let on_request t ~name ~is_private ~cached =
  match t.kind with
  | No_privacy -> if cached then Random_cache.Hit else Random_cache.Miss
  | Always_delay ->
    if cached && not is_private then Random_cache.Hit else Random_cache.Miss
  | Random_cache _ ->
    let algorithm = Option.get t.algorithm in
    if not is_private then
      if cached then Random_cache.Hit else Random_cache.Miss
    else begin
      (* Every request for private content advances Algorithm 1, even
         when the object is momentarily evicted: the router state S
         counts forwarded requests, not cache residency. *)
      let key = Grouping.key t.grouping ~registry:t.registry name in
      let output = Random_cache.on_request algorithm key in
      if cached then output else Random_cache.Miss
    end
