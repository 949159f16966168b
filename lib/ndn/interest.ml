type t = {
  name : Name.t;
  nonce : int64;
  scope : int option;
  consumer_private : bool;
}

let create ?scope ?(consumer_private = false) ~nonce name =
  (match scope with
  | Some s when s < 1 -> invalid_arg "Interest.create: scope must be >= 1"
  | _ -> ());
  { name; nonce; scope; consumer_private }

let decrement_scope t =
  match t.scope with
  | None -> Some t
  | Some s when s <= 1 -> None
  | Some s -> Some { t with scope = Some (s - 1) }

let equal a b =
  Name.equal a.name b.name && Int64.equal a.nonce b.nonce && a.scope = b.scope
  && a.consumer_private = b.consumer_private

let import t = { t with name = Name.import t.name }
