(* Bindings live in a hash table keyed by the hash-consed name, whose
   hash is a memoized field: exact operations cost one table operation
   instead of a string-compare descent.  Each binding is stored as its
   own [Some] cell, built once at [add], so [find] returns it without
   allocating.  The table and the census are created with the first
   binding: a node builds several indexes (FIB, local registrations,
   CS prefix index) and many stay empty for life.

   [census.(n)] counts the bound names of length [n].  [fold_prefixes]
   (local dispatch) probes the table only at the lengths the census holds.
   Extension queries need the names below a node in component order,
   so a component-keyed tree ([Smap], stdlib Map) is built from the
   table on the first extension query that could find something beyond
   the exact binding, or on the first longest-prefix match, and
   maintained from then on until [clear].  Longest-prefix match walks
   that tree down the query's components, no deeper than the census's
   longest length, so the value-only query (the FIB's) never builds a
   prefix name. *)

module Smap = Map.Make (String)

type 'a node = {
  depth : int; (* components from the root *)
  mutable value : 'a option;
  mutable children : 'a node Smap.t;
}

type 'a t = {
  mutable table : 'a option Name.Tbl.t option;
  mutable census : int array;
  mutable tree : 'a node option;
}

let new_node depth = { depth; value = None; children = Smap.empty }

let create () = { table = None; census = [||]; tree = None }

let size t = match t.table with Some tbl -> Name.Tbl.length tbl | None -> 0

let is_empty t = size t = 0

(* --- ordered tree (extension queries only) --- *)

let tree_add root name cell =
  let rec go node = function
    | [] -> node.value <- cell
    | c :: rest ->
      let child =
        match Smap.find_opt c node.children with
        | Some child -> child
        | None ->
          let child = new_node (node.depth + 1) in
          node.children <- Smap.add c child node.children;
          child
      in
      go child rest
  in
  go root (Name.components name)

let tree_remove root name =
  (* Returns [true] when the child became empty and can be pruned. *)
  let rec go node = function
    | [] ->
      node.value <- None;
      Smap.is_empty node.children
    | c :: rest -> (
      match Smap.find_opt c node.children with
      | None -> false
      | Some child ->
        if go child rest then node.children <- Smap.remove c node.children;
        node.value = None && Smap.is_empty node.children)
  in
  ignore (go root (Name.components name))

let tree t =
  match t.tree with
  | Some root -> root
  | None ->
    let root = new_node 0 in
    Option.iter (Name.Tbl.iter (fun name cell -> tree_add root name cell)) t.table;
    t.tree <- Some root;
    root

(* --- bindings --- *)

let table t =
  match t.table with
  | Some tbl -> tbl
  | None ->
    let tbl = Name.Tbl.create 16 in
    t.table <- Some tbl;
    tbl

let add t name v =
  let tbl = table t in
  let before = Name.Tbl.length tbl in
  let cell = Some v in
  Name.Tbl.replace tbl name cell;
  if Name.Tbl.length tbl > before then begin
    let len = Name.length name in
    if len >= Array.length t.census then begin
      let census = Array.make (Int.max 8 (2 * len)) 0 in
      Array.blit t.census 0 census 0 (Array.length t.census);
      t.census <- census
    end;
    t.census.(len) <- t.census.(len) + 1
  end;
  match t.tree with Some root -> tree_add root name cell | None -> ()

let remove t name =
  match t.table with
  | None -> ()
  | Some tbl ->
    let before = Name.Tbl.length tbl in
    Name.Tbl.remove tbl name;
    if Name.Tbl.length tbl < before then begin
      let len = Name.length name in
      t.census.(len) <- t.census.(len) - 1;
      match t.tree with Some root -> tree_remove root name | None -> ()
    end

(* ndnlint: hot *)
let find t name =
  match t.table with
  | None -> None
  | Some tbl -> (
    match Name.Tbl.find tbl name with exception Not_found -> None | cell -> cell)

let mem t name = match t.table with Some tbl -> Name.Tbl.mem tbl name | None -> false

(* --- prefix queries: probe the census lengths --- *)

(* The prefix of [name] with [n] components; the query itself at its
   own length, so the common probe builds no name. *)
let prefix_at name len n = if n = len then name else Name.prefix name n

(* The probe loop is a top-level function rather than a local closure,
   so a query allocates only its answer. *)
let rec prefixes_from t name len last n acc f =
  if n > last then acc
  else
    let acc =
      if t.census.(n) = 0 then acc
      else
        let p = prefix_at name len n in
        match find t p with Some v -> f acc p v | None -> acc
    in
    prefixes_from t name len last (n + 1) acc f

let fold_prefixes t name ~init ~f =
  let len = Name.length name in
  prefixes_from t name len (Int.min len (Array.length t.census - 1)) 0 init f

(* --- longest-prefix match: walk the ordered tree --- *)

(* Walk down the query's components, keeping the deepest bound node
   passed; [best] starts at the root, which stays the answer when no
   prefix is bound.  The walk builds no name and allocates nothing. *)
let rec deepest node comps last best =
  let best = match node.value with Some _ -> node | None -> best in
  if node.depth >= last then best
  else
    match comps with
    | [] -> best
    | c :: rest -> (
      match Smap.find c node.children with
      | exception Not_found -> best
      | child -> deepest child rest last best)

let longest_node t name =
  let root = tree t in
  let last = Int.min (Name.length name) (Array.length t.census - 1) in
  deepest root (Name.components name) last root

let longest_prefix t name =
  if is_empty t then None
  else
    let node = longest_node t name in
    match node.value with
    | None -> None
    | Some v -> Some (prefix_at name (Name.length name) node.depth, v)

(* ndnlint: hot *)
let longest_prefix_value t name = if is_empty t then None else (longest_node t name).value

(* --- extension queries --- *)

let rec any_from census n =
  n < Array.length census && (census.(n) > 0 || any_from census (n + 1))

(* Does any bound name have more components than [len]?  If not, the
   only possible extension of a query of that length is itself. *)
let has_longer t len = any_from t.census (len + 1)

let descend root name =
  let rec go node = function
    | [] -> Some node
    | c :: rest -> (
      match Smap.find c node.children with
      | exception Not_found -> None
      | child -> go child rest)
  in
  go root (Name.components name)

exception Found_binding of Name.t

let first_extension t name =
  if not (has_longer t (Name.length name)) then
    match find t name with Some v -> Some (name, v) | None -> None
  else
    match descend (tree t) name with
    | None -> None
    | Some node -> (
      (* DFS in component order; the first binding found is the smallest. *)
      let rec dfs prefix node =
        (match node.value with Some _ -> raise (Found_binding prefix) | None -> ());
        Smap.iter (fun c child -> dfs (Name.append prefix c) child) node.children
      in
      try
        dfs name node;
        None
      with Found_binding n -> (
        match find t n with Some v -> Some (n, v) | None -> None))

let fold_subtree t name ~init ~f =
  if not (has_longer t (Name.length name)) then
    match find t name with Some v -> f init name v | None -> init
  else
    match descend (tree t) name with
    | None -> init
    | Some node ->
      let rec dfs prefix node acc =
        let acc = match node.value with Some v -> f acc prefix v | None -> acc in
        Smap.fold (fun c child acc -> dfs (Name.append prefix c) child acc) node.children acc
      in
      dfs name node init

(* [Name.compare] is the tree's DFS order: NUL, the key separator,
   sorts below every component byte, so a name precedes its extensions
   and siblings order by component. *)
let to_list t =
  match t.table with
  | None -> []
  | Some tbl ->
    Name.Tbl.fold
      (fun name cell acc -> match cell with Some v -> (name, v) :: acc | None -> acc)
      tbl []
    |> List.sort (fun (a, _) (b, _) -> Name.compare a b)

let clear t =
  t.table <- None;
  t.census <- [||];
  t.tree <- None
