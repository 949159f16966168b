type t = { trie : int list ref Name_trie.t }

let create () = { trie = Name_trie.create () }

let add_route t ~prefix ~face =
  match Name_trie.find t.trie prefix with
  | Some faces -> if not (List.mem face !faces) then faces := !faces @ [ face ]
  | None -> Name_trie.add t.trie prefix (ref [ face ])

let remove_route t ~prefix ~face =
  match Name_trie.find t.trie prefix with
  | None -> ()
  | Some faces ->
    faces := List.filter (fun f -> f <> face) !faces;
    if !faces = [] then Name_trie.remove t.trie prefix

let next_hops t name =
  match Name_trie.longest_prefix_value t.trie name with
  | Some faces -> !faces
  | None -> []

let next_hop t name = match next_hops t name with [] -> None | f :: _ -> Some f

let routes t = List.map (fun (n, faces) -> (n, !faces)) (Name_trie.to_list t.trie)

let size t = Name_trie.size t.trie

let clear t = Name_trie.clear t.trie
