type t = { k : int; counts : int ref Ndn.Name.Tbl.t }

let create ~k =
  if k < 0 then invalid_arg "Naive_scheme.create: negative k";
  { k; counts = Ndn.Name.Tbl.create 64 }

let k t = t.k

let on_request t key =
  match Ndn.Name.Tbl.find_opt t.counts key with
  | None ->
    Ndn.Name.Tbl.replace t.counts key (ref 0);
    Random_cache.Miss
  | Some c ->
    incr c;
    if !c <= t.k then Random_cache.Miss else Random_cache.Hit
