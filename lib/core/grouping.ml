type t = By_content | By_namespace of int | By_content_id

let key t ~registry name =
  match t with
  | By_content -> name
  | By_namespace depth -> Ndn.Name.namespace name ~depth
  | By_content_id -> (
    match Ndn.Name.Tbl.find_opt registry name with
    | Some group -> group
    | None -> name)

let register_id ~registry ~name ~id =
  (* Content-id groups live in a reserved namespace so they can never
     collide with real content names. *)
  Ndn.Name.Tbl.replace registry name
    (Ndn.Name.of_components [ "__content-id"; id ])
