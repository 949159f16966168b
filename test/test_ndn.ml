(* Tests for the NDN substrate: names, trie, packets, content store,
   PIT, FIB, node forwarding, network topologies. *)

open Ndn

let name = Name.of_string

let name_testable = Alcotest.testable Name.pp Name.equal

(* --- Name --- *)

let test_name_parsing () =
  Alcotest.(check (list string)) "components"
    [ "cnn"; "news"; "2013may20" ]
    (Name.components (name "/cnn/news/2013may20"));
  Alcotest.check name_testable "redundant slashes" (name "/a/b")
    (name "//a//b/");
  Alcotest.check name_testable "root" Name.root (name "/");
  Alcotest.check name_testable "empty string is root" Name.root (name "")

let test_name_to_string () =
  Alcotest.(check string) "roundtrip" "/a/b/c" (Name.to_string (name "/a/b/c"));
  Alcotest.(check string) "root prints /" "/" (Name.to_string Name.root)

let test_name_invalid_component () =
  Alcotest.check_raises "NUL rejected" (Invalid_argument "Name: NUL byte in component")
    (fun () -> ignore (Name.of_components [ "a\000b" ]));
  Alcotest.check_raises "empty rejected" (Invalid_argument "Name: empty component")
    (fun () -> ignore (Name.of_components [ "" ]))

let test_name_append_parent_last () =
  let n = name "/youtube/alice" in
  let n' = Name.append n "video-749.avi" in
  Alcotest.(check int) "length" 3 (Name.length n');
  Alcotest.(check (option string)) "last" (Some "video-749.avi") (Name.last n');
  Alcotest.(check (option name_testable)) "parent" (Some n) (Name.parent n');
  Alcotest.(check (option name_testable)) "root parent" None (Name.parent Name.root)

let test_name_prefix_semantics () =
  let full = name "/cnn/news/2013may20" in
  Alcotest.(check bool) "/cnn/news matches" true
    (Name.is_prefix ~prefix:(name "/cnn/news") full);
  Alcotest.(check bool) "reflexive" true (Name.is_prefix ~prefix:full full);
  Alcotest.(check bool) "root matches everything" true
    (Name.is_prefix ~prefix:Name.root full);
  Alcotest.(check bool) "sibling does not match" false
    (Name.is_prefix ~prefix:(name "/cnn/sports") full);
  Alcotest.(check bool) "longer does not match shorter" false
    (Name.is_prefix ~prefix:full (name "/cnn/news"));
  Alcotest.(check bool) "component boundary honored" false
    (Name.is_prefix ~prefix:(name "/cn") full);
  Alcotest.(check bool) "strict excludes equality" false
    (Name.is_strict_prefix ~prefix:full full);
  Alcotest.(check bool) "strict on real prefix" true
    (Name.is_strict_prefix ~prefix:(name "/cnn") full)

let test_name_prefix_extraction () =
  let full = name "/a/b/c/d" in
  Alcotest.check name_testable "prefix 2" (name "/a/b") (Name.prefix full 2);
  Alcotest.check name_testable "prefix 0" Name.root (Name.prefix full 0);
  Alcotest.check name_testable "prefix full" full (Name.prefix full 4);
  Alcotest.check_raises "negative" (Invalid_argument "Name.prefix: bad length")
    (fun () -> ignore (Name.prefix full (-1)))

let test_name_namespace () =
  let full = name "/youtube/alice/video/137" in
  Alcotest.check name_testable "depth 2" (name "/youtube/alice")
    (Name.namespace full ~depth:2);
  Alcotest.check name_testable "depth beyond length" full
    (Name.namespace full ~depth:10)

let test_name_ordering_and_hash () =
  let a = name "/a/b" and b = name "/a/c" in
  Alcotest.(check bool) "order" true (Name.compare a b < 0);
  Alcotest.(check bool) "equal hash" true (Name.hash a = Name.hash (name "/a/b"));
  Alcotest.(check bool) "equal" true (Name.equal a (name "/a/b"))

let test_name_concat () =
  Alcotest.check name_testable "concat" (name "/a/b/c/d")
    (Name.concat (name "/a/b") (name "/c/d"));
  Alcotest.check name_testable "concat root left" (name "/x")
    (Name.concat Name.root (name "/x"));
  Alcotest.check name_testable "concat root right" (name "/x")
    (Name.concat (name "/x") Name.root)

let test_name_containers () =
  let s = Name.Set.of_list [ name "/a"; name "/b"; name "/a" ] in
  Alcotest.(check int) "set dedups" 2 (Name.Set.cardinal s);
  let m = Name.Map.singleton (name "/a/b") 1 in
  Alcotest.(check (option int)) "map lookup" (Some 1)
    (Name.Map.find_opt (name "/a/b") m)

(* --- Name_trie --- *)

let trie_of bindings =
  let t = Name_trie.create () in
  List.iter (fun (n, v) -> Name_trie.add t (name n) v) bindings;
  t

let test_trie_find_exact () =
  let t = trie_of [ ("/a/b", 1); ("/a", 2); ("/c", 3) ] in
  Alcotest.(check (option int)) "find /a/b" (Some 1) (Name_trie.find t (name "/a/b"));
  Alcotest.(check (option int)) "find /a" (Some 2) (Name_trie.find t (name "/a"));
  Alcotest.(check (option int)) "miss" None (Name_trie.find t (name "/a/b/c"));
  Alcotest.(check int) "size" 3 (Name_trie.size t)

let test_trie_replace () =
  let t = trie_of [ ("/a", 1) ] in
  Name_trie.add t (name "/a") 9;
  Alcotest.(check (option int)) "replaced" (Some 9) (Name_trie.find t (name "/a"));
  Alcotest.(check int) "size unchanged" 1 (Name_trie.size t)

let test_trie_remove_prunes () =
  let t = trie_of [ ("/a/b/c", 1) ] in
  Name_trie.remove t (name "/a/b/c");
  Alcotest.(check int) "empty" 0 (Name_trie.size t);
  Alcotest.(check bool) "is_empty" true (Name_trie.is_empty t);
  (* removing a non-existent binding is a no-op *)
  Name_trie.remove t (name "/zz");
  Alcotest.(check int) "still empty" 0 (Name_trie.size t)

let test_trie_remove_keeps_descendants () =
  let t = trie_of [ ("/a", 1); ("/a/b", 2) ] in
  Name_trie.remove t (name "/a");
  Alcotest.(check (option int)) "child survives" (Some 2)
    (Name_trie.find t (name "/a/b"));
  Alcotest.(check int) "size" 1 (Name_trie.size t)

let test_trie_longest_prefix () =
  let t = trie_of [ ("/a", 1); ("/a/b", 2); ("/c", 3) ] in
  (match Name_trie.longest_prefix t (name "/a/b/c/d") with
  | Some (n, v) ->
    Alcotest.check name_testable "longest name" (name "/a/b") n;
    Alcotest.(check int) "value" 2 v
  | None -> Alcotest.fail "expected match");
  (match Name_trie.longest_prefix t (name "/a/x") with
  | Some (n, _) -> Alcotest.check name_testable "falls back to /a" (name "/a") n
  | None -> Alcotest.fail "expected match");
  Alcotest.(check bool) "no match" true
    (Name_trie.longest_prefix t (name "/zzz") = None)

let test_trie_root_binding () =
  let t = trie_of [ ("/", 0); ("/a", 1) ] in
  (match Name_trie.longest_prefix t (name "/x/y") with
  | Some (n, v) ->
    Alcotest.check name_testable "root is default route" Name.root n;
    Alcotest.(check int) "value" 0 v
  | None -> Alcotest.fail "root should match");
  Alcotest.(check int) "size counts root" 2 (Name_trie.size t)

let test_trie_fold_prefixes () =
  let t = trie_of [ ("/a", 1); ("/a/b", 2); ("/a/b/c", 3); ("/x", 9) ] in
  let hits =
    Name_trie.fold_prefixes t (name "/a/b/c/d") ~init:[] ~f:(fun acc n v ->
        (Name.to_string n, v) :: acc)
  in
  Alcotest.(check (list (pair string int)))
    "all prefixes shortest-first"
    [ ("/a/b/c", 3); ("/a/b", 2); ("/a", 1) ]
    hits

let test_trie_first_extension () =
  let t = trie_of [ ("/a/b/z", 26); ("/a/b/c", 3); ("/a/q", 17) ] in
  (match Name_trie.first_extension t (name "/a/b") with
  | Some (n, v) ->
    Alcotest.check name_testable "smallest extension" (name "/a/b/c") n;
    Alcotest.(check int) "value" 3 v
  | None -> Alcotest.fail "expected extension");
  Alcotest.(check bool) "no extension" true
    (Name_trie.first_extension t (name "/zzz") = None);
  (* exact binding counts as its own extension *)
  (match Name_trie.first_extension t (name "/a/b/c") with
  | Some (n, _) -> Alcotest.check name_testable "self" (name "/a/b/c") n
  | None -> Alcotest.fail "self should match")

let test_trie_fold_subtree_order () =
  let t = trie_of [ ("/a/c", 2); ("/a/b", 1); ("/a/b/x", 3) ] in
  let names =
    Name_trie.fold_subtree t (name "/a") ~init:[] ~f:(fun acc n _ ->
        Name.to_string n :: acc)
  in
  Alcotest.(check (list string)) "canonical order"
    [ "/a/c"; "/a/b/x"; "/a/b" ]
    names

let test_trie_to_list_and_clear () =
  let t = trie_of [ ("/b", 2); ("/a", 1) ] in
  Alcotest.(check (list (pair string int)))
    "sorted bindings"
    [ ("/a", 1); ("/b", 2) ]
    (List.map (fun (n, v) -> (Name.to_string n, v)) (Name_trie.to_list t));
  Name_trie.clear t;
  Alcotest.(check int) "cleared" 0 (Name_trie.size t)

(* --- Name_trie against an association-list model --- *)

(* Random [add]/[remove]/[clear] sequences over names of 0-4 components
   from a three-component alphabet ("a" < "ab" < "b", so a component
   that is a prefix of its sibling is exercised).  Short names and long
   names mix, so the census gate of the extension queries takes both
   branches.  Extension queries start only at a random step: before it
   the ordered tree is never built, so the lazy build happens after
   arbitrary churn, and [clear] drops it again mid-sequence. *)

type trie_op = Trie_add of Name.t * int | Trie_remove of Name.t | Trie_clear

let trie_name_gen =
  QCheck.Gen.(
    map Name.of_components (list_size (int_range 0 4) (oneofl [ "a"; "ab"; "b" ])))

let trie_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun n v -> Trie_add (n, v)) trie_name_gen small_nat);
        (3, map (fun n -> Trie_remove n) trie_name_gen);
        (1, return Trie_clear);
      ])

let print_trie_op = function
  | Trie_add (n, v) -> Printf.sprintf "add %s %d" (Name.to_string n) v
  | Trie_remove n -> "remove " ^ Name.to_string n
  | Trie_clear -> "clear"

let trie_apply t = function
  | Trie_add (n, v) -> Name_trie.add t n v
  | Trie_remove n -> Name_trie.remove t n
  | Trie_clear -> Name_trie.clear t

(* The model: one (name, value) pair per bound name. *)
let model_apply model op =
  let without n = List.filter (fun (m, _) -> not (Name.equal m n)) model in
  match op with
  | Trie_add (n, v) -> (n, v) :: without n
  | Trie_remove n -> without n
  | Trie_clear -> []

(* Component-wise lexicographic order, stated without reference to
   [Name.compare]'s NUL-joined key. *)
let component_order (a, _) (b, _) =
  List.compare String.compare (Name.components a) (Name.components b)

let render_bindings bs =
  String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" (Name.to_string n) v) bs)

let check_trie_against_model ~step ~tree_queries t model queries =
  let fail what q got want =
    QCheck.Test.fail_reportf "step %d, %s %s: trie [%s] model [%s]" step what
      (Name.to_string q) (render_bindings got) (render_bindings want)
  in
  let opt = function Some b -> [ b ] | None -> [] in
  let same got want =
    List.equal (fun (a, v) (b, w) -> Name.equal a b && v = w) got want
  in
  let check what q got want = if not (same got want) then fail what q got want in
  let collect fold q =
    List.rev (fold t q ~init:[] ~f:(fun acc n v -> (n, v) :: acc))
  in
  check "to_list" Name.root (Name_trie.to_list t) (List.sort component_order model);
  if Name_trie.size t <> List.length model then
    QCheck.Test.fail_reportf "step %d: size %d, model %d" step (Name_trie.size t)
      (List.length model);
  List.iter
    (fun q ->
      let bound = List.filter (fun (n, _) -> Name.equal n q) model in
      check "find" q (opt (Option.map (fun v -> (q, v)) (Name_trie.find t q))) bound;
      if Name_trie.mem t q <> (bound <> []) then fail "mem" q [] bound;
      let prefixes =
        List.filter (fun (n, _) -> Name.is_prefix ~prefix:n q) model
        |> List.sort (fun (a, _) (b, _) -> Int.compare (Name.length a) (Name.length b))
      in
      check "fold_prefixes" q (collect Name_trie.fold_prefixes q) prefixes;
      if tree_queries then begin
        let longest = match List.rev prefixes with b :: _ -> [ b ] | [] -> [] in
        check "longest_prefix" q (opt (Name_trie.longest_prefix t q)) longest;
        (* The FIB's value-only query answers with the same binding. *)
        if Name_trie.longest_prefix_value t q <> List.nth_opt (List.map snd longest) 0
        then fail "longest_prefix_value" q [] longest;
        let below =
          List.filter (fun (n, _) -> Name.is_prefix ~prefix:q n) model
          |> List.sort component_order
        in
        check "fold_subtree" q (collect Name_trie.fold_subtree q) below;
        check "first_extension" q
          (opt (Name_trie.first_extension t q))
          (match below with b :: _ -> [ b ] | [] -> [])
      end)
    queries

let trie_model_property =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 40) trie_op_gen)
        (list_size (int_range 1 8) trie_name_gen)
        (int_range 0 45))
  in
  let print (ops, queries, tree_from) =
    Printf.sprintf "ops=[%s] queries=[%s] tree queries from step %d"
      (String.concat "; " (List.map print_trie_op ops))
      (String.concat " " (List.map Name.to_string queries))
      tree_from
  in
  QCheck.Test.make ~name:"trie agrees with an association-list model" ~count:300
    (QCheck.make ~print gen)
    (fun (ops, queries, tree_from) ->
      let t = Name_trie.create () in
      let model =
        List.fold_left
          (fun (step, model) op ->
            trie_apply t op;
            let model = model_apply model op in
            check_trie_against_model ~step ~tree_queries:(step >= tree_from) t model
              queries;
            (step + 1, model))
          (0, []) ops
        |> snd
      in
      check_trie_against_model ~step:(List.length ops) ~tree_queries:true t model
        queries;
      true)

(* --- Name_index: against the stdlib hash table --- *)

(* Names whose home cell in a fresh index (8 cells) is the last one, so
   a run that starts there wraps to cell 0. *)
let wrapping_names n =
  let rec go i acc =
    if List.length acc = n then List.rev acc
    else
      let nm = Name.of_components [ "w"; string_of_int i ] in
      go (i + 1) (if Name.hash nm land 7 = 7 then nm :: acc else acc)
  in
  go 0 []

(* Three names with one home, the last cell: they sit in cells 7, 0 and
   1.  Deleting the first must shift the two others back across the
   wrap, or they become unreachable. *)
let test_name_index_wrap_delete () =
  let idx = Name_index.create () in
  let ns = wrapping_names 3 in
  List.iteri (fun i n -> Name_index.replace idx n i) ns;
  Name_index.remove idx (List.hd ns);
  Alcotest.(check int) "two left" 2 (Name_index.length idx);
  Alcotest.(check int) "removed" (-1) (Name_index.find idx (List.hd ns));
  List.iteri
    (fun i n -> if i > 0 then Alcotest.(check int) "still found" i (Name_index.find idx n))
    ns;
  Name_index.remove idx (List.nth ns 1);
  Alcotest.(check int) "last still found" 2 (Name_index.find idx (List.nth ns 2))

type index_op = Ix_replace of int * int | Ix_remove of int | Ix_clear

(* A universe of a few dozen names, a quarter of them sharing the last
   home cell of the first table, so probe runs wrap and deletes shift
   entries back across the end of the table.  The rest are one to four
   components long, so the length census sees every length come and
   go. *)
let index_universe =
  Array.of_list
    (wrapping_names 8
    @ List.init 24 (fun i ->
          Name.of_components
            (List.init (1 + (i mod 4)) (fun k ->
                 if k = 0 then "u" ^ string_of_int i else string_of_int k))))

let index_op_gen =
  let n = Array.length index_universe in
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun i s -> Ix_replace (i, s)) (int_bound (n - 1)) (int_bound 1000));
        (4, map (fun i -> Ix_remove i) (int_bound (n - 1)));
        (1, return Ix_clear);
      ])

let print_index_op = function
  | Ix_replace (i, s) -> Printf.sprintf "replace %s %d" (Name.to_string index_universe.(i)) s
  | Ix_remove i -> "remove " ^ Name.to_string index_universe.(i)
  | Ix_clear -> "clear"

let name_index_model_property =
  QCheck.Test.make ~name:"name index agrees with Hashtbl" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_index_op ops))
       QCheck.Gen.(list_size (int_range 0 80) index_op_gen))
    (fun ops ->
      let idx = Name_index.create () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun step op ->
          (match op with
          | Ix_replace (i, s) ->
            Name_index.replace idx index_universe.(i) s;
            Hashtbl.replace model i s
          | Ix_remove i ->
            Name_index.remove idx index_universe.(i);
            Hashtbl.remove model i
          | Ix_clear ->
            Name_index.clear idx;
            Hashtbl.reset model);
          if Name_index.length idx <> Hashtbl.length model then
            QCheck.Test.fail_reportf "step %d: length %d, model %d" step
              (Name_index.length idx) (Hashtbl.length model);
          Array.iteri
            (fun i n ->
              let want = Option.value (Hashtbl.find_opt model i) ~default:(-1) in
              if Name_index.find idx n <> want || Name_index.mem idx n <> (want >= 0) then
                QCheck.Test.fail_reportf "step %d, find %s: %d, model %d" step
                  (Name.to_string n) (Name_index.find idx n) want;
              let longer =
                Hashtbl.fold
                  (fun j _ acc -> acc || Name.length index_universe.(j) > Name.length n)
                  model false
              in
              if Name_index.has_longer idx n <> longer then
                QCheck.Test.fail_reportf "step %d, has_longer %s: %b, model %b" step
                  (Name.to_string n) (not longer) longer)
            index_universe;
          for len = 0 to 5 do
            let held =
              Hashtbl.fold
                (fun j _ acc -> acc || Name.length index_universe.(j) = len)
                model false
            in
            if Name_index.has_length idx len <> held then
              QCheck.Test.fail_reportf "step %d, has_length %d: %b, model %b" step len
                (not held) held
          done)
        ops;
      true)

(* --- PIT: against an association-list model --- *)

(* The model keeps the live entries oldest first, each with its
   arrivals newest first, and states every rule of pit.mli directly:
   admission by policy, collapse, duplicate and same-face
   retransmission, any-prefix satisfy, exact take, expiry by age, and
   the sweep test.  Time moves forward by a few ms per step against a
   10 ms lifetime, so entries expire, are satisfied early and are
   evicted, and the expiry index holds leftovers of all three. *)

type pit_entry_model = {
  m_name : Name.t;
  m_created : float;
  m_face0 : int;
  mutable m_arrivals : (int * int64) list;
}

type pit_model = {
  mutable live : pit_entry_model list; (* oldest first *)
  mutable ever : int list; (* faces that ever claimed an entry *)
  mutable m_evictions : int;
  mutable m_rejections : int;
  mutable evicted : Name.t list; (* on_evict calls, newest first *)
}

type pit_op =
  | P_insert of int * int * int (* name, face, nonce *)
  | P_satisfy of int
  | P_take of int
  | P_expire
  | P_sweep of int (* [at] offset from now *)
  | P_clear

let pit_lifetime = 10.

let pit_universe =
  Array.of_list
    (List.map Name.of_components
       [ []; [ "a" ]; [ "b" ]; [ "a"; "x" ]; [ "a"; "y" ]; [ "b"; "x" ]; [ "a"; "x"; "1" ] ])

let pit_op_gen =
  let n = Array.length pit_universe in
  QCheck.Gen.(
    frequency
      [
        (8, map3 (fun i f c -> P_insert (i, f, c)) (int_bound (n - 1)) (int_bound 3) (int_bound 2));
        (3, map (fun i -> P_satisfy i) (int_bound (n - 1)));
        (1, map (fun i -> P_take i) (int_bound (n - 1)));
        (2, return P_expire);
        (1, map (fun d -> P_sweep d) (int_range 0 25));
        (1, return P_clear);
      ])

let print_pit_op = function
  | P_insert (i, f, c) ->
    Printf.sprintf "insert %s face %d nonce %d" (Name.to_string pit_universe.(i)) f c
  | P_satisfy i -> "satisfy " ^ Name.to_string pit_universe.(i)
  | P_take i -> "take " ^ Name.to_string pit_universe.(i)
  | P_expire -> "expire"
  | P_sweep d -> Printf.sprintf "sweep_useful +%d" d
  | P_clear -> "clear"

(* Registration order, first arrival of each face kept. *)
let registration_faces arrivals_newest_first =
  List.fold_left
    (fun acc (f, _) -> if List.mem f acc then acc else acc @ [ f ])
    [] (List.rev arrivals_newest_first)

let model_insert ~capacity ~admission m ~now ~face ~nonce name =
  match List.find_opt (fun e -> Name.equal e.m_name name) m.live with
  | Some e ->
    if List.exists (fun (f, n) -> f = face && Int64.equal n nonce) e.m_arrivals then
      Pit.Duplicate
    else begin
      let again = List.mem_assoc face e.m_arrivals in
      e.m_arrivals <- (face, nonce) :: e.m_arrivals;
      if again then Pit.Forward else Pit.Collapsed
    end
  | None ->
    let size = List.length m.live in
    let admitted =
      match capacity with
      | None -> true
      | Some cap -> (
        match admission with
        | Pit.Drop_new -> size < cap
        | Pit.Evict_oldest ->
          size < cap
          ||
          (match m.live with
          | oldest :: rest ->
            m.live <- rest;
            m.m_evictions <- m.m_evictions + 1;
            m.evicted <- oldest.m_name :: m.evicted;
            true
          | [] -> false)
        | Pit.Per_face_fair ->
          if not (List.mem face m.ever) then m.ever <- face :: m.ever;
          let share = max 1 (cap / List.length m.ever) in
          let mine = List.length (List.filter (fun e -> e.m_face0 = face) m.live) in
          size < cap && mine < share)
    in
    if admitted then begin
      m.live <-
        m.live @ [ { m_name = name; m_created = now; m_face0 = face; m_arrivals = [ (face, nonce) ] } ];
      Pit.Forward
    end
    else begin
      m.m_rejections <- m.m_rejections + 1;
      Pit.Rejected
    end

let pit_result_to_string = function
  | Pit.Forward -> "forward"
  | Pit.Collapsed -> "collapsed"
  | Pit.Duplicate -> "duplicate"
  | Pit.Rejected -> "rejected"

let pit_model_property =
  let gen =
    QCheck.Gen.(
      pair
        (pair (opt (int_range 1 4)) (oneofl [ Pit.Drop_new; Pit.Evict_oldest; Pit.Per_face_fair ]))
        (list_size (int_range 0 60) (pair pit_op_gen (oneofl [ 0; 0; 1; 2; 5 ]))))
  in
  let print ((cap, adm), ops) =
    Printf.sprintf "capacity %s, %s: %s"
      (match cap with Some c -> string_of_int c | None -> "none")
      (Pit.admission_to_string adm)
      (String.concat "; "
         (List.map (fun (op, dt) -> Printf.sprintf "+%d %s" dt (print_pit_op op)) ops))
  in
  QCheck.Test.make ~name:"pit agrees with an association-list model" ~count:1000
    (QCheck.make ~print gen)
    (fun ((capacity, admission), ops) ->
      let evicted = ref [] in
      let pit =
        Pit.create ~lifetime_ms:pit_lifetime ?capacity ~admission
          ~on_evict:(fun n -> evicted := n :: !evicted)
          ()
      in
      let m = { live = []; ever = []; m_evictions = 0; m_rejections = 0; evicted = [] } in
      let names l = String.concat "," (List.map Name.to_string l) in
      let ints l = String.concat "," (List.map string_of_int l) in
      let now = ref 0. in
      List.iteri
        (fun step (op, dt) ->
          now := !now +. float_of_int dt;
          let now = !now in
          let fail fmt = QCheck.Test.fail_reportf ("step %d (%s): " ^^ fmt) step (print_pit_op op) in
          (match op with
          | P_insert (i, face, c) ->
            let nonce = Int64.of_int c in
            let got = Pit.insert pit ~now ~face ~nonce pit_universe.(i) in
            let want = model_insert ~capacity ~admission m ~now ~face ~nonce pit_universe.(i) in
            if got <> want then
              fail "%s, model %s" (pit_result_to_string got) (pit_result_to_string want)
          | P_satisfy i ->
            let q = pit_universe.(i) in
            let matched, rest =
              List.partition (fun e -> Name.is_prefix ~prefix:e.m_name q) m.live
            in
            m.live <- rest;
            let shortest_first =
              List.stable_sort
                (fun a b -> Int.compare (Name.length a.m_name) (Name.length b.m_name))
                matched
            in
            let want_faces =
              registration_faces
                (List.concat_map (fun e -> e.m_arrivals) (List.rev shortest_first))
            in
            let want_created =
              List.fold_left (fun acc e -> Float.min acc e.m_created) infinity matched
            in
            let faces = Pit.satisfy_timed pit q in
            let created = Pit.satisfied_created pit in
            if faces <> want_faces || not (Float.equal created want_created) then
              fail "faces [%s] created %g, model [%s] created %g" (ints faces) created
                (ints want_faces) want_created
          | P_take i ->
            let q = pit_universe.(i) in
            let want =
              match List.find_opt (fun e -> Name.equal e.m_name q) m.live with
              | Some e ->
                m.live <- List.filter (fun x -> x != e) m.live;
                registration_faces e.m_arrivals
              | None -> []
            in
            let got = Pit.take pit q in
            if got <> want then fail "faces [%s], model [%s]" (ints got) (ints want)
          | P_expire ->
            let old, young =
              List.partition (fun e -> now -. e.m_created > pit_lifetime) m.live
            in
            m.live <- young;
            let want =
              List.map (fun e -> e.m_name) old
              |> List.sort (fun a b ->
                     List.compare String.compare (Name.components a) (Name.components b))
            in
            let got = Pit.expire pit ~now in
            if not (List.equal Name.equal got want) then
              fail "expired [%s], model [%s]" (names got) (names want)
          | P_sweep d ->
            let at = now +. float_of_int d in
            let oldest = match m.live with e :: _ -> e.m_created | [] -> now in
            let want = at -. oldest > pit_lifetime in
            if Pit.sweep_useful pit ~now ~at <> want then fail "sweep_useful %b" (not want)
          | P_clear ->
            Pit.clear pit;
            m.live <- [];
            m.ever <- []);
          if Pit.size pit <> List.length m.live then
            fail "size %d, model %d" (Pit.size pit) (List.length m.live);
          if Pit.evictions pit <> m.m_evictions || Pit.rejections pit <> m.m_rejections then
            fail "evictions %d/%d rejections %d/%d" (Pit.evictions pit) m.m_evictions
              (Pit.rejections pit) m.m_rejections;
          if not (List.equal Name.equal !evicted m.evicted) then
            fail "evicted [%s], model [%s]" (names !evicted) (names m.evicted);
          Array.iter
            (fun q ->
              let want =
                match List.find_opt (fun e -> Name.equal e.m_name q) m.live with
                | Some e -> registration_faces e.m_arrivals
                | None -> []
              in
              if Pit.faces pit q <> want || Pit.pending pit q <> (want <> []) then
                fail "faces of %s [%s], model [%s]" (Name.to_string q) (ints (Pit.faces pit q))
                  (ints want))
            pit_universe)
        ops;
      true)

(* --- Interest / Data / Packet --- *)

let test_interest_scope () =
  let i = Interest.create ~scope:2 ~nonce:1L (name "/a") in
  (match Interest.decrement_scope i with
  | Some i' -> Alcotest.(check (option int)) "2 -> 1" (Some 1) i'.Interest.scope
  | None -> Alcotest.fail "should still forward");
  let i1 = Interest.create ~scope:1 ~nonce:1L (name "/a") in
  Alcotest.(check bool) "scope 1 exhausted" true (Interest.decrement_scope i1 = None);
  let unlimited = Interest.create ~nonce:1L (name "/a") in
  (match Interest.decrement_scope unlimited with
  | Some i' -> Alcotest.(check (option int)) "unlimited unchanged" None i'.Interest.scope
  | None -> Alcotest.fail "unlimited must pass")

let test_interest_rejects_zero_scope () =
  Alcotest.check_raises "scope 0" (Invalid_argument "Interest.create: scope must be >= 1")
    (fun () -> ignore (Interest.create ~scope:0 ~nonce:1L (name "/a")))

let test_data_signature () =
  let d =
    Data.create ~producer:"P" ~key:"pkey" ~payload:"hello" (name "/prod/x")
  in
  Alcotest.(check bool) "verifies under signer key" true (Data.verify d ~key:"pkey");
  Alcotest.(check bool) "rejects wrong key" false (Data.verify d ~key:"other")

let test_data_signature_covers_flags () =
  let plain =
    Data.create ~producer:"P" ~key:"k" ~payload:"x" (name "/prod/x")
  in
  let private_ =
    Data.create ~producer_private:true ~producer:"P" ~key:"k" ~payload:"x"
      (name "/prod/x")
  in
  Alcotest.(check bool) "privacy bit changes signature" true
    (plain.Data.signature <> private_.Data.signature)

let test_data_freshness () =
  let d =
    Data.create ~freshness_ms:100. ~producer:"P" ~key:"k" ~payload:"" (name "/a")
  in
  Alcotest.(check bool) "fresh" true (Data.is_fresh d ~age_ms:50.);
  Alcotest.(check bool) "stale" false (Data.is_fresh d ~age_ms:150.);
  let forever = Data.create ~producer:"P" ~key:"k" ~payload:"" (name "/a") in
  Alcotest.(check bool) "no freshness = always fresh" true
    (Data.is_fresh forever ~age_ms:1e12)

let test_packet_accessors () =
  let i = Interest.create ~nonce:7L (name "/a/b") in
  let d = Data.create ~producer:"P" ~key:"k" ~payload:"xyz" (name "/c") in
  Alcotest.check name_testable "interest name" (name "/a/b")
    (Packet.name (Packet.Interest i));
  Alcotest.check name_testable "data name" (name "/c") (Packet.name (Packet.Data d));
  Alcotest.(check bool) "data bigger than interest" true
    (Packet.size_bytes (Packet.Data d) > Packet.size_bytes (Packet.Interest i))

(* --- Content_store --- *)

let mk_data ?(producer_private = false) ?(strict_match = false) ?freshness_ms n =
  Data.create ~producer_private ~strict_match ?freshness_ms ~producer:"P"
    ~key:"k" ~payload:"payload" (name n)

let test_cs_insert_lookup () =
  let cs = Content_store.create ~capacity:10 () in
  Content_store.insert cs ~now:0. (mk_data "/a/1") ();
  (match Content_store.lookup cs ~now:1. (name "/a/1") with
  | Some e -> Alcotest.check name_testable "hit" (name "/a/1") e.Content_store.data.Data.name
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "miss" true (Content_store.lookup cs ~now:1. (name "/a/2") = None);
  let c = Content_store.counters cs in
  Alcotest.(check int) "hits" 1 c.Content_store.hits;
  Alcotest.(check int) "misses" 1 c.Content_store.misses

let test_cs_lru_eviction () =
  let cs = Content_store.create ~capacity:3 () in
  List.iteri (fun i n -> Content_store.insert cs ~now:(float_of_int i) (mk_data n) ())
    [ "/a"; "/b"; "/c" ];
  (* touch /a so /b becomes LRU *)
  ignore (Content_store.lookup cs ~now:10. (name "/a"));
  Content_store.insert cs ~now:11. (mk_data "/d") ();
  Alcotest.(check bool) "/b evicted" false (Content_store.mem cs (name "/b"));
  Alcotest.(check bool) "/a kept" true (Content_store.mem cs (name "/a"));
  Alcotest.(check int) "size at capacity" 3 (Content_store.size cs);
  Alcotest.(check int) "one eviction" 1 (Content_store.counters cs).Content_store.evictions

let test_cs_fifo_eviction () =
  let cs = Content_store.create ~policy:Eviction.Fifo ~capacity:3 () in
  List.iteri (fun i n -> Content_store.insert cs ~now:(float_of_int i) (mk_data n) ())
    [ "/a"; "/b"; "/c" ];
  (* touching /a must NOT save it under FIFO *)
  ignore (Content_store.lookup cs ~now:10. (name "/a"));
  Content_store.insert cs ~now:11. (mk_data "/d") ();
  Alcotest.(check bool) "/a evicted despite recent use" false
    (Content_store.mem cs (name "/a"))

let test_cs_lfu_eviction () =
  let cs = Content_store.create ~policy:Eviction.Lfu ~capacity:3 () in
  List.iteri (fun i n -> Content_store.insert cs ~now:(float_of_int i) (mk_data n) ())
    [ "/a"; "/b"; "/c" ];
  (* /a twice, /c once, /b never *)
  ignore (Content_store.lookup cs ~now:10. (name "/a"));
  ignore (Content_store.lookup cs ~now:11. (name "/a"));
  ignore (Content_store.lookup cs ~now:12. (name "/c"));
  Content_store.insert cs ~now:13. (mk_data "/d") ();
  Alcotest.(check bool) "least frequent (/b) evicted" false
    (Content_store.mem cs (name "/b"));
  Alcotest.(check bool) "/a kept" true (Content_store.mem cs (name "/a"));
  Alcotest.(check bool) "/c kept" true (Content_store.mem cs (name "/c"))

let test_cs_random_eviction_needs_rng () =
  Alcotest.check_raises "missing rng"
    (Invalid_argument "Content_store.create: random replacement needs an rng")
    (fun () ->
      ignore (Content_store.create ~policy:Eviction.Random_replacement ~capacity:2 ()))

let test_cs_random_eviction () =
  let rng = Sim.Rng.create 3 in
  let cs =
    Content_store.create ~policy:Eviction.Random_replacement ~rng ~capacity:5 ()
  in
  for i = 0 to 49 do
    Content_store.insert cs ~now:(float_of_int i) (mk_data (Printf.sprintf "/n/%d" i)) ()
  done;
  Alcotest.(check int) "capacity respected" 5 (Content_store.size cs);
  Alcotest.(check int) "evictions" 45 (Content_store.counters cs).Content_store.evictions

let test_cs_unbounded () =
  let cs = Content_store.create ~capacity:0 () in
  for i = 0 to 999 do
    Content_store.insert cs ~now:0. (mk_data (Printf.sprintf "/n/%d" i)) ()
  done;
  Alcotest.(check int) "all retained" 1000 (Content_store.size cs);
  Alcotest.(check int) "no evictions" 0 (Content_store.counters cs).Content_store.evictions

let test_cs_reinsert_refreshes () =
  let cs = Content_store.create ~capacity:10 () in
  Content_store.insert cs ~now:0. (mk_data "/a") ();
  Content_store.insert cs ~now:5. (mk_data "/a") ();
  Alcotest.(check int) "no duplicate" 1 (Content_store.size cs);
  match Content_store.peek cs (name "/a") with
  | Some e -> Alcotest.(check (float 1e-9)) "inserted_at refreshed" 5. e.Content_store.inserted_at
  | None -> Alcotest.fail "expected entry"

let test_cs_prefix_matching () =
  let cs = Content_store.create ~capacity:10 () in
  Content_store.insert cs ~now:0. (mk_data "/a/b/2") ();
  Content_store.insert cs ~now:0. (mk_data "/a/b/1") ();
  (match Content_store.lookup cs ~now:1. (name "/a/b") with
  | Some e ->
    Alcotest.check name_testable "smallest extension wins" (name "/a/b/1")
      e.Content_store.data.Data.name
  | None -> Alcotest.fail "prefix should match");
  Alcotest.(check bool) "exact-only mode misses" true
    (Content_store.lookup cs ~now:1. ~exact:true (name "/a/b") = None)

let test_cs_strict_match_blocks_prefix_probing () =
  (* Footnote 5: rand-named content must not answer prefix interests. *)
  let cs = Content_store.create ~capacity:10 () in
  Content_store.insert cs ~now:0. (mk_data ~strict_match:true "/alice/skype/0/rand123") ();
  Alcotest.(check bool) "prefix probe fails" true
    (Content_store.lookup cs ~now:1. (name "/alice/skype/0") = None);
  Alcotest.(check bool) "full name still works" true
    (Content_store.lookup cs ~now:1. (name "/alice/skype/0/rand123") <> None)

let test_cs_freshness_expiry () =
  let cs = Content_store.create ~capacity:10 () in
  Content_store.insert cs ~now:0. (mk_data ~freshness_ms:100. "/a") ();
  Alcotest.(check bool) "fresh hit" true
    (Content_store.lookup cs ~now:50. (name "/a") <> None);
  Alcotest.(check bool) "stale entries expire on lookup" true
    (Content_store.lookup cs ~now:200. (name "/a") = None);
  Alcotest.(check int) "expiration counted" 1
    (Content_store.counters cs).Content_store.expirations;
  Alcotest.(check int) "gone from store" 0 (Content_store.size cs)

let test_cs_peek_no_side_effects () =
  let cs = Content_store.create ~capacity:10 () in
  Content_store.insert cs ~now:0. (mk_data "/a") ();
  (match Content_store.peek cs (name "/a") with
  | Some e -> Alcotest.(check int) "no hit recorded" 0 e.Content_store.access_count
  | None -> Alcotest.fail "expected entry");
  let c = Content_store.counters cs in
  Alcotest.(check int) "no lookup counted" 0 c.Content_store.lookups

let test_cs_meta () =
  let cs = Content_store.create ~capacity:10 () in
  Content_store.insert cs ~now:0. (mk_data "/a") 41;
  Alcotest.(check bool) "set_meta" true (Content_store.set_meta cs (name "/a") 42);
  (match Content_store.peek cs (name "/a") with
  | Some e -> Alcotest.(check int) "meta updated" 42 e.Content_store.meta
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check bool) "set_meta on absent" false
    (Content_store.set_meta cs (name "/zz") 0)

let test_cs_remove_and_clear () =
  let cs = Content_store.create ~capacity:10 () in
  Content_store.insert cs ~now:0. (mk_data "/a") ();
  Content_store.insert cs ~now:0. (mk_data "/b") ();
  Content_store.remove cs (name "/a");
  Alcotest.(check bool) "removed" false (Content_store.mem cs (name "/a"));
  Content_store.clear cs;
  Alcotest.(check int) "cleared" 0 (Content_store.size cs)

let test_cs_access_count_and_recency () =
  let cs = Content_store.create ~capacity:10 () in
  Content_store.insert cs ~now:0. (mk_data "/a") ();
  ignore (Content_store.lookup cs ~now:1. (name "/a"));
  ignore (Content_store.lookup cs ~now:2. (name "/a"));
  match Content_store.peek cs (name "/a") with
  | Some e ->
    Alcotest.(check int) "access_count" 2 e.Content_store.access_count;
    Alcotest.(check (float 1e-9)) "last_access" 2. e.Content_store.last_access
  | None -> Alcotest.fail "expected entry"

(* --- PIT --- *)

let test_pit_insert_collapse () =
  let pit = Pit.create () in
  Alcotest.(check bool) "first is Forward" true
    (Pit.insert pit ~now:0. ~face:1 ~nonce:1L (name "/a") = Pit.Forward);
  Alcotest.(check bool) "second face is Collapsed" true
    (Pit.insert pit ~now:1. ~face:2 ~nonce:2L (name "/a") = Pit.Collapsed);
  Alcotest.(check bool) "same face+nonce is Duplicate" true
    (Pit.insert pit ~now:2. ~face:1 ~nonce:1L (name "/a") = Pit.Duplicate);
  Alcotest.(check (list int)) "faces in order" [ 1; 2 ] (Pit.faces pit (name "/a"))

let test_pit_satisfy () =
  let pit = Pit.create () in
  ignore (Pit.insert pit ~now:0. ~face:1 ~nonce:1L (name "/a"));
  ignore (Pit.insert pit ~now:0. ~face:2 ~nonce:2L (name "/a"));
  Alcotest.(check (list int)) "both faces" [ 1; 2 ]
    (Pit.satisfy_timed pit (name "/a"));
  Alcotest.(check bool) "entry flushed" false (Pit.pending pit (name "/a"));
  Alcotest.(check (list int)) "second satisfy empty" []
    (Pit.satisfy_timed pit (name "/a"))

let test_pit_satisfy_by_extension () =
  (* Data named /a/b/c satisfies pending interests for /a/b and /a/b/c. *)
  let pit = Pit.create () in
  ignore (Pit.insert pit ~now:0. ~face:1 ~nonce:1L (name "/a/b"));
  ignore (Pit.insert pit ~now:0. ~face:2 ~nonce:2L (name "/a/b/c"));
  ignore (Pit.insert pit ~now:0. ~face:3 ~nonce:3L (name "/a/x"));
  let faces = Pit.satisfy_timed pit (name "/a/b/c") in
  Alcotest.(check (list int)) "prefix entries satisfied" [ 1; 2 ] faces;
  Alcotest.(check bool) "unrelated survives" true (Pit.pending pit (name "/a/x"))

let test_pit_satisfy_dedups_faces () =
  let pit = Pit.create () in
  ignore (Pit.insert pit ~now:0. ~face:1 ~nonce:1L (name "/a"));
  ignore (Pit.insert pit ~now:0. ~face:1 ~nonce:2L (name "/a/b"));
  Alcotest.(check (list int)) "face listed once" [ 1 ]
    (Pit.satisfy_timed pit (name "/a/b"));
  (* Registration order across entries, shortest name first, each face
     at its first arrival; a retransmission does not move its face. *)
  ignore (Pit.insert pit ~now:0. ~face:2 ~nonce:3L (name "/a"));
  ignore (Pit.insert pit ~now:0. ~face:1 ~nonce:4L (name "/a"));
  ignore (Pit.insert pit ~now:0. ~face:2 ~nonce:5L (name "/a"));
  ignore (Pit.insert pit ~now:0. ~face:3 ~nonce:6L (name "/a/b"));
  ignore (Pit.insert pit ~now:0. ~face:1 ~nonce:7L (name "/a/b"));
  Alcotest.(check (list int)) "faces in registration order" [ 2; 1; 3 ]
    (Pit.satisfy_timed pit (name "/a/b"))

let test_pit_satisfy_timed () =
  let pit = Pit.create () in
  ignore (Pit.insert pit ~now:3. ~face:1 ~nonce:1L (name "/a"));
  Alcotest.(check (list int)) "faces" [ 1 ] (Pit.satisfy_timed pit (name "/a"));
  Alcotest.(check (float 1e-9)) "created" 3. (Pit.satisfied_created pit);
  Alcotest.(check (list int)) "no faces" [] (Pit.satisfy_timed pit (name "/zzz"));
  Alcotest.(check bool) "no created" true
    (Float.equal Float.infinity (Pit.satisfied_created pit));
  (* Several matches: the oldest entry's time, whichever is longest. *)
  ignore (Pit.insert pit ~now:5. ~face:1 ~nonce:2L (name "/b/c"));
  ignore (Pit.insert pit ~now:7. ~face:2 ~nonce:3L (name "/b"));
  ignore (Pit.insert pit ~now:9. ~face:3 ~nonce:4L (name "/b/c/d"));
  Alcotest.(check (list int)) "all three" [ 2; 1; 3 ]
    (Pit.satisfy_timed pit (name "/b/c/d"));
  Alcotest.(check (float 1e-9)) "oldest of several" 5. (Pit.satisfied_created pit)

let test_pit_expire () =
  let pit = Pit.create ~lifetime_ms:100. () in
  ignore (Pit.insert pit ~now:0. ~face:1 ~nonce:1L (name "/old"));
  ignore (Pit.insert pit ~now:90. ~face:1 ~nonce:2L (name "/new"));
  let expired = Pit.expire pit ~now:150. in
  Alcotest.(check (list name_testable)) "only the old one" [ name "/old" ] expired;
  Alcotest.(check bool) "new entry survives" true (Pit.pending pit (name "/new"));
  Alcotest.(check int) "size" 1 (Pit.size pit)

(* --- FIB --- *)

let test_fib_longest_prefix () =
  let fib = Fib.create () in
  Fib.add_route fib ~prefix:(name "/") ~face:0;
  Fib.add_route fib ~prefix:(name "/prod") ~face:1;
  Fib.add_route fib ~prefix:(name "/prod/videos") ~face:2;
  Alcotest.(check (option int)) "most specific" (Some 2)
    (Fib.next_hop fib (name "/prod/videos/1"));
  Alcotest.(check (option int)) "mid" (Some 1) (Fib.next_hop fib (name "/prod/news"));
  Alcotest.(check (option int)) "default" (Some 0) (Fib.next_hop fib (name "/other"))

let test_fib_multiple_faces () =
  let fib = Fib.create () in
  Fib.add_route fib ~prefix:(name "/p") ~face:1;
  Fib.add_route fib ~prefix:(name "/p") ~face:2;
  Fib.add_route fib ~prefix:(name "/p") ~face:1 (* duplicate ignored *);
  Alcotest.(check (list int)) "preference order" [ 1; 2 ] (Fib.next_hops fib (name "/p/x"))

let test_fib_remove () =
  let fib = Fib.create () in
  Fib.add_route fib ~prefix:(name "/p") ~face:1;
  Fib.add_route fib ~prefix:(name "/p") ~face:2;
  Fib.remove_route fib ~prefix:(name "/p") ~face:1;
  Alcotest.(check (list int)) "face removed" [ 2 ] (Fib.next_hops fib (name "/p/x"));
  Fib.remove_route fib ~prefix:(name "/p") ~face:2;
  Alcotest.(check (list int)) "prefix withdrawn" [] (Fib.next_hops fib (name "/p/x"));
  Alcotest.(check int) "size 0" 0 (Fib.size fib)

let test_fib_no_route () =
  let fib = Fib.create () in
  Alcotest.(check (option int)) "empty fib" None (Fib.next_hop fib (name "/x"))

(* --- Node / Network end-to-end --- *)

let test_end_to_end_fetch () =
  let setup = Network.lan () in
  let n = name "/prod/file/1" in
  (match Network.fetch_rtt setup.Network.net ~from:setup.Network.user n with
  | Some rtt -> Alcotest.(check bool) "positive rtt" true (rtt > 0.)
  | None -> Alcotest.fail "fetch timed out");
  Alcotest.(check bool) "content cached at router" true
    (Content_store.mem (Node.content_store setup.Network.router) n)

let test_cache_hit_faster_than_miss () =
  let setup = Network.lan () in
  let n = name "/prod/file/2" in
  let miss = Network.fetch_rtt setup.Network.net ~from:setup.Network.user n in
  let hit = Network.fetch_rtt setup.Network.net ~from:setup.Network.adversary n in
  match (miss, hit) with
  | Some m, Some h -> Alcotest.(check bool) "hit < miss" true (h < m)
  | _ -> Alcotest.fail "timeout"

let test_interest_collapsing_at_router () =
  (* Two consumers ask for the same content near-simultaneously: the
     router must forward one interest upstream and answer both. *)
  let setup = Network.lan () in
  let n = name "/prod/file/collapse" in
  let got = ref 0 in
  Node.express_interest setup.Network.user n ~on_data:(fun ~rtt_ms:_ _ -> incr got);
  Node.express_interest setup.Network.adversary n ~on_data:(fun ~rtt_ms:_ _ -> incr got);
  Network.run setup.Network.net;
  Alcotest.(check int) "both consumers served" 2 !got;
  let pc = Node.counters setup.Network.producer_host in
  Alcotest.(check int) "producer produced once" 1 pc.Node.interests_forwarded

let test_scope_2_hit_vs_miss () =
  let setup = Network.lan () in
  let cached = name "/prod/file/cached" and fresh = name "/prod/file/fresh" in
  ignore (Network.fetch_rtt setup.Network.net ~from:setup.Network.user cached);
  Alcotest.(check bool) "scope-2 returns cached content" true
    (Network.fetch_rtt setup.Network.net ~from:setup.Network.adversary ~scope:2 cached
    <> None);
  Alcotest.(check bool) "scope-2 starves on uncached content" true
    (Network.fetch_rtt setup.Network.net ~from:setup.Network.adversary ~scope:2
       ~timeout_ms:500. fresh
    = None);
  Alcotest.(check bool) "router recorded scope drop" true
    ((Node.counters setup.Network.router).Node.scope_drops >= 1)

let test_scope_ignored_when_disabled () =
  (* honor_scope=false routers forward regardless. *)
  let net = Network.create ~seed:5 () in
  let a = Network.add_node net ~caching:false "A" in
  let r = Network.add_node net ~honor_scope:false "R" in
  let p = Network.add_node net "P" in
  let prefix = name "/prod" in
  Node.add_producer p ~prefix (fun i ->
      Some (Data.create ~producer:"P" ~key:"k" ~payload:"d" i.Interest.name));
  let fa, _ = Network.connect net ~latency:(Sim.Latency.Constant 1.) a r in
  let fr, _ = Network.connect net ~latency:(Sim.Latency.Constant 1.) r p in
  Network.route net a ~prefix ~via:fa;
  Network.route net r ~prefix ~via:fr;
  (* A honors scope (scope 2 -> 1 on first hop), but R ignores it. *)
  Alcotest.(check bool) "content fetched despite scope 2" true
    (Network.fetch_rtt net ~from:a ~scope:2 (name "/prod/x") <> None)

let test_pit_timeout_no_route () =
  let net = Network.create () in
  let a = Network.add_node net "A" in
  (* No route at all: interest dies, timeout callback fires. *)
  let timed_out = ref false in
  Node.express_interest a (name "/nowhere") ~timeout_ms:100.
    ~on_data:(fun ~rtt_ms:_ _ -> ())
    ~on_timeout:(fun () -> timed_out := true);
  Network.run net;
  Alcotest.(check bool) "timeout fired" true !timed_out;
  Alcotest.(check int) "no-route counted" 1 (Node.counters a).Node.no_route_drops

let test_packet_loss_and_retransmission () =
  (* With a lossy link, a retransmitted interest is satisfied from the
     closest cache that already holds the content. *)
  let net = Network.create ~seed:77 () in
  let a = Network.add_node net ~caching:false "A" in
  let r = Network.add_node net "R" in
  let p = Network.add_node net "P" in
  let prefix = name "/prod" in
  Node.add_producer p ~prefix (fun i ->
      Some (Data.create ~producer:"P" ~key:"k" ~payload:"d" i.Interest.name));
  (* loss only between A and R *)
  let fa, _ = Network.connect net ~loss:0.3 ~latency:(Sim.Latency.Constant 1.) a r in
  let fr, _ = Network.connect net ~latency:(Sim.Latency.Constant 1.) r p in
  Network.route net a ~prefix ~via:fa;
  Network.route net r ~prefix ~via:fr;
  (* Retransmit until success. *)
  let attempts = ref 0 and got = ref false in
  let n = name "/prod/lossy" in
  let rec try_fetch () =
    if (not !got) && !attempts < 20 then begin
      incr attempts;
      Node.express_interest a n ~timeout_ms:300.
        ~on_data:(fun ~rtt_ms:_ _ -> got := true)
        ~on_timeout:try_fetch
    end
  in
  try_fetch ();
  Network.run net;
  Alcotest.(check bool) "eventually fetched despite loss" true !got

let test_producer_only_serves_its_prefix () =
  let setup = Network.lan () in
  Alcotest.(check bool) "unknown namespace times out" true
    (Network.fetch_rtt setup.Network.net ~from:setup.Network.user ~timeout_ms:500.
       (name "/prod2/foo")
    = None)

let test_local_host_probing () =
  (* The local-adversary topology: the host's own CS answers instantly. *)
  let setup = Network.local_host () in
  let n = name "/prod/app-secret" in
  let miss = Network.fetch_rtt setup.Network.net ~from:setup.Network.user n in
  let hit = Network.fetch_rtt setup.Network.net ~from:setup.Network.adversary n in
  match (miss, hit) with
  | Some m, Some h ->
    Alcotest.(check bool) "local hit is much faster" true (h < m /. 2.);
    Alcotest.(check bool) "hit under 1ms" true (h < 1.5)
  | _ -> Alcotest.fail "timeout"

let test_node_caching_disabled () =
  let setup = Network.lan () in
  let n = name "/prod/file/nocache" in
  ignore (Network.fetch_rtt setup.Network.net ~from:setup.Network.adversary n);
  Alcotest.(check bool) "consumer host did not cache" false
    (Content_store.mem (Node.content_store setup.Network.adversary) n);
  Alcotest.(check bool) "router cached" true
    (Content_store.mem (Node.content_store setup.Network.router) n)

let test_data_flows_only_where_requested () =
  let setup = Network.lan () in
  let n = name "/prod/file/directed" in
  ignore (Network.fetch_rtt setup.Network.net ~from:setup.Network.user n);
  (* Adversary host never saw the data. *)
  Alcotest.(check int) "no data at adversary" 0
    (Node.counters setup.Network.adversary).Node.data_received

(* --- Segmentation --- *)

let test_segmentation_split () =
  let chunks = Segmentation.split ~payload:"abcdefghij" ~segment_size:4 in
  Alcotest.(check (list string)) "chunks" [ "abcd"; "efgh"; "ij" ] chunks;
  Alcotest.(check (list string)) "empty payload has one empty chunk" [ "" ]
    (Segmentation.split ~payload:"" ~segment_size:4);
  Alcotest.(check int) "count" 3
    (Segmentation.segment_count ~payload:"abcdefghij" ~segment_size:4);
  Alcotest.check_raises "bad size"
    (Invalid_argument "Segmentation.split: segment_size must be positive")
    (fun () -> ignore (Segmentation.split ~payload:"x" ~segment_size:0))

let test_segmentation_names () =
  let base = name "/prod/video" in
  Alcotest.check name_testable "segment 3" (name "/prod/video/3")
    (Segmentation.segment_name ~base 3);
  Alcotest.check_raises "negative"
    (Invalid_argument "Segmentation.segment_name: negative index") (fun () ->
      ignore (Segmentation.segment_name ~base (-1)))

let test_segmentation_handler () =
  let base = name "/prod/file" in
  let handler =
    Segmentation.producer_handler ~base ~producer:"P" ~key:"k"
      ~content_id:"file-1" ~payload:"0123456789" ~segment_size:4 ()
  in
  let ask n = handler (Interest.create ~nonce:1L (name n)) in
  (match ask "/prod/file/0" with
  | Some d -> (
    Alcotest.(check (option string)) "content id" (Some "file-1") d.Data.content_id;
    match Segmentation.parse_segment d with
    | Some (total, chunk) ->
      Alcotest.(check int) "total" 3 total;
      Alcotest.(check string) "chunk" "0123" chunk
    | None -> Alcotest.fail "segment should parse")
  | None -> Alcotest.fail "segment 0 should exist");
  Alcotest.(check bool) "out of range" true (ask "/prod/file/3" = None);
  Alcotest.(check bool) "not a segment name" true (ask "/prod/file/x" = None);
  Alcotest.(check bool) "too deep" true (ask "/prod/file/0/extra" = None);
  Alcotest.(check bool) "bare base" true (ask "/prod/file" = None)

let test_segmentation_fetch_all () =
  let setup = Network.lan () in
  let base = name "/prod/movie" in
  let payload = String.init 3000 (fun i -> Char.chr (97 + (i mod 26))) in
  Node.add_producer setup.Network.producer_host ~prefix:base
    (Segmentation.producer_handler ~base ~producer:"P"
       ~key:setup.Network.producer_key ~payload ~segment_size:512 ());
  let result = ref None in
  Segmentation.fetch_all setup.Network.user ~base
    ~on_complete:(fun r -> result := Some r)
    ();
  Network.run setup.Network.net;
  match !result with
  | Some (Some reassembled) ->
    Alcotest.(check string) "payload reassembled" payload reassembled
  | Some None -> Alcotest.fail "fetch_all reported failure"
  | None -> Alcotest.fail "fetch_all never completed"

let test_segmentation_fetch_all_missing_segment () =
  (* Producer refuses segment 2: the fetch must fail, not hang. *)
  let setup = Network.lan () in
  let base = name "/prod/broken" in
  let handler =
    Segmentation.producer_handler ~base ~producer:"P"
      ~key:setup.Network.producer_key ~payload:(String.make 2000 'z')
      ~segment_size:512 ()
  in
  Node.add_producer setup.Network.producer_host ~prefix:base (fun interest ->
      if Name.equal interest.Interest.name (name "/prod/broken/2") then None
      else handler interest);
  let result = ref None in
  Segmentation.fetch_all setup.Network.user ~base ~timeout_ms:300.
    ~on_complete:(fun r -> result := Some r)
    ();
  Network.run setup.Network.net;
  Alcotest.(check bool) "failure reported" true (!result = Some None)

let test_segmentation_second_fetch_from_cache () =
  let setup = Network.lan () in
  let base = name "/prod/popular" in
  let payload = String.make 2048 'q' in
  Node.add_producer setup.Network.producer_host ~prefix:base
    (Segmentation.producer_handler ~base ~producer:"P"
       ~key:setup.Network.producer_key ~payload ~segment_size:512 ());
  let fetch_once () =
    let t0 = Sim.Engine.now (Network.engine setup.Network.net) in
    let result = ref None in
    Segmentation.fetch_all setup.Network.user ~base
      ~on_complete:(fun r -> result := Some r)
      ();
    Network.run setup.Network.net;
    (Sim.Engine.now (Network.engine setup.Network.net) -. t0, !result)
  in
  let _, first = fetch_once () in
  Alcotest.(check bool) "first fetch ok" true (first = Some (Some payload));
  (* All four segments are now in R's cache. *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "segment %d cached at R" i)
        true
        (Content_store.mem
           (Node.content_store setup.Network.router)
           (Segmentation.segment_name ~base i)))
    [ 0; 1; 2; 3 ]

(* --- Wire codec --- *)

let test_wire_interest_roundtrip () =
  let cases =
    [
      Interest.create ~nonce:0L (name "/a");
      Interest.create ~scope:2 ~nonce:123456789L (name "/a/b/c");
      Interest.create ~consumer_private:true ~nonce:(-1L) (name "/x");
      Interest.create ~scope:255 ~consumer_private:true ~nonce:42L Name.root;
    ]
  in
  List.iter
    (fun i ->
      match Wire.decode_interest (Wire.encode_interest i) with
      | Ok i' -> Alcotest.(check bool) "roundtrip" true (Interest.equal i i')
      | Error e -> Alcotest.failf "decode failed: %s" (Format.asprintf "%a" Wire.pp_error e))
    cases

let test_wire_data_roundtrip () =
  let d =
    Data.create ~producer_private:true ~strict_match:true ~content_id:"grp-9"
      ~freshness_ms:123.5 ~producer:"P" ~key:"secret" ~payload:"payload bytes \x00\xff"
      (name "/prod/file/7")
  in
  match Wire.decode_data (Wire.encode_data d) with
  | Ok d' ->
    Alcotest.(check bool) "name" true (Name.equal d.Data.name d'.Data.name);
    Alcotest.(check string) "payload" d.Data.payload d'.Data.payload;
    Alcotest.(check string) "producer" d.Data.producer d'.Data.producer;
    Alcotest.(check bool) "producer_private" d.Data.producer_private d'.Data.producer_private;
    Alcotest.(check bool) "strict" d.Data.strict_match d'.Data.strict_match;
    Alcotest.(check (option string)) "content id" d.Data.content_id d'.Data.content_id;
    Alcotest.(check (option (float 1e-9))) "freshness" d.Data.freshness_ms d'.Data.freshness_ms;
    Alcotest.(check bool) "signature verifies after roundtrip" true
      (Data.verify d' ~key:"secret")
  | Error e -> Alcotest.failf "decode failed: %s" (Format.asprintf "%a" Wire.pp_error e)

let test_wire_packet_dispatch () =
  let i = Interest.create ~nonce:1L (name "/a") in
  let d = Data.create ~producer:"P" ~key:"k" ~payload:"x" (name "/b") in
  (match Wire.decode_packet (Wire.encode_packet (Packet.Interest i)) with
  | Ok (Packet.Interest _) -> ()
  | Ok (Packet.Data _ | Packet.Nack _) -> Alcotest.fail "wrong branch"
  | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Wire.pp_error e));
  (match Wire.decode_packet (Wire.encode_packet (Packet.Data d)) with
  | Ok (Packet.Data _) -> ()
  | Ok (Packet.Interest _ | Packet.Nack _) -> Alcotest.fail "wrong branch"
  | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Wire.pp_error e));
  let nk =
    Nack.create ~nonce:7L ~reason:Nack.Pit_full (name "/a/b")
  in
  match Wire.decode_packet (Wire.encode_packet (Packet.Nack nk)) with
  | Ok (Packet.Nack nk') -> Alcotest.(check bool) "nack roundtrips" true (Nack.equal nk nk')
  | Ok (Packet.Interest _ | Packet.Data _) -> Alcotest.fail "wrong branch"
  | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Wire.pp_error e)

let test_wire_rejects_garbage () =
  (match Wire.decode_packet "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input must fail");
  (match Wire.decode_packet "\x99\x00\x00\x00\x00" with
  | Error e -> Alcotest.(check bool) "unknown type reported" true
      (String.length e.Wire.reason > 0)
  | Ok _ -> Alcotest.fail "unknown type must fail");
  (* truncate a valid encoding at every length: must never raise *)
  let enc =
    Wire.encode_packet
      (Packet.Data (Data.create ~producer:"P" ~key:"k" ~payload:"x" (name "/a/b")))
  in
  for cut = 0 to String.length enc - 1 do
    match Wire.decode_packet (String.sub enc 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d must fail" cut
  done

let test_wire_trailing_bytes_rejected () =
  let enc = Wire.encode_interest (Interest.create ~nonce:1L (name "/a")) in
  match Wire.decode_interest (enc ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes must fail"

let test_wire_encoded_size () =
  let p = Packet.Interest (Interest.create ~nonce:1L (name "/a/b")) in
  Alcotest.(check int) "size matches encoding" (String.length (Wire.encode_packet p))
    (Wire.encoded_size p)

(* --- Consumer --- *)

let lossy_chain ~loss ~seed =
  let net = Network.create ~seed () in
  let a = Network.add_node net ~caching:false "A" in
  let r = Network.add_node net "R" in
  let p = Network.add_node net "P" in
  let prefix = name "/prod" in
  Node.add_producer p ~prefix (fun i ->
      Some (Data.create ~producer:"P" ~key:"k" ~payload:"d" i.Interest.name));
  let fa, _ = Network.connect net ~loss ~latency:(Sim.Latency.Constant 1.) a r in
  let fr, _ = Network.connect net ~latency:(Sim.Latency.Constant 1.) r p in
  Network.route net a ~prefix ~via:fa;
  Network.route net r ~prefix ~via:fr;
  (net, a)

let test_consumer_fetch_clean_link () =
  let net, a = lossy_chain ~loss:0. ~seed:3 in
  let outcome = ref None in
  Consumer.fetch a ~on_done:(fun o -> outcome := Some o) (name "/prod/x");
  Network.run net;
  match !outcome with
  | Some o ->
    Alcotest.(check bool) "delivered" true (o.Consumer.data <> None);
    Alcotest.(check int) "single attempt" 1 o.Consumer.attempts
  | None -> Alcotest.fail "no completion"

let test_consumer_retransmits_through_loss () =
  let net, a = lossy_chain ~loss:0.4 ~seed:4 in
  let delivered = ref 0 and total_attempts = ref 0 in
  for i = 0 to 14 do
    Consumer.fetch a ~max_retries:20
      ~on_done:(fun o ->
        if o.Consumer.data <> None then incr delivered;
        total_attempts := !total_attempts + o.Consumer.attempts)
      (name (Printf.sprintf "/prod/%d" i));
    Network.run net
  done;
  Alcotest.(check int) "all delivered despite 40% loss" 15 !delivered;
  Alcotest.(check bool) "retransmissions happened" true (!total_attempts > 15)

let test_consumer_gives_up () =
  (* No route: every attempt times out; bounded retries then failure. *)
  let net = Network.create ~seed:5 () in
  let a = Network.add_node net "A" in
  let outcome = ref None in
  Consumer.fetch a ~max_retries:2 ~on_done:(fun o -> outcome := Some o)
    (name "/nowhere");
  Network.run net;
  match !outcome with
  | Some o ->
    Alcotest.(check bool) "failed" true (o.Consumer.data = None);
    Alcotest.(check int) "initial + 2 retries" 3 o.Consumer.attempts
  | None -> Alcotest.fail "no completion"

let test_consumer_fetch_sequence () =
  let net, a = lossy_chain ~loss:0.2 ~seed:6 in
  let results = ref None in
  let names = List.init 8 (fun i -> name (Printf.sprintf "/prod/seq/%d" i)) in
  Consumer.fetch_sequence a ~max_retries:10 ~names
    ~on_done:(fun os -> results := Some os)
    ();
  Network.run net;
  match !results with
  | Some os ->
    Alcotest.(check int) "all outcomes" 8 (List.length os);
    List.iter
      (fun o -> Alcotest.(check bool) "delivered" true (o.Consumer.data <> None))
      os
  | None -> Alcotest.fail "sequence never completed"

let test_rtt_estimator () =
  let e = Consumer.Rtt_estimator.create () in
  Alcotest.(check (option (float 1e-9))) "no samples" None (Consumer.Rtt_estimator.srtt e);
  Alcotest.(check (float 1e-9)) "initial rto" 1000. (Consumer.Rtt_estimator.rto e);
  Consumer.Rtt_estimator.observe e ~rtt_ms:100.;
  Alcotest.(check (option (float 1e-9))) "first sample" (Some 100.)
    (Consumer.Rtt_estimator.srtt e);
  (* RFC 6298 first sample: rto = srtt + 4 * (srtt/2) = 300 *)
  Alcotest.(check (float 1e-9)) "rto after first sample" 300.
    (Consumer.Rtt_estimator.rto e);
  Consumer.Rtt_estimator.backoff e;
  Alcotest.(check (float 1e-9)) "backoff doubles" 600. (Consumer.Rtt_estimator.rto e);
  for _ = 1 to 50 do
    Consumer.Rtt_estimator.observe e ~rtt_ms:100.
  done;
  Alcotest.(check bool) "converges near srtt" true (Consumer.Rtt_estimator.rto e < 150.);
  Alcotest.(check int) "sample count" 51 (Consumer.Rtt_estimator.samples e)

(* --- Topology_spec --- *)

let demo_spec = {spec|
# the paper's Figure 1 in four lines of spec
node U caching=false proc=normal:0.9:0.18:0.3
node Adv caching=false proc=normal:0.9:0.18:0.3
node R cs=10000 policy=lru proc=normal:0.9:0.18:0.3
node P proc=normal:0.9:0.18:0.3
link U R latency=normal:0.25:0.06:0.05
link Adv R latency=normal:0.25:0.06:0.05
link R P latency=normal:1.8:0.35:0.5
route U /prod via R
route Adv /prod via R
route R /prod via P
producer P /prod key=pk payload=256
|spec}

let test_topology_spec_end_to_end () =
  match Topology_spec.parse demo_spec with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok topo ->
    let u = Topology_spec.node topo "U" in
    let adv = Topology_spec.node topo "Adv" in
    let r = Topology_spec.node topo "R" in
    let n = name "/prod/file" in
    let miss = Network.fetch_rtt topo.Topology_spec.network ~from:u n in
    let hit = Network.fetch_rtt topo.Topology_spec.network ~from:adv n in
    (match (miss, hit) with
    | Some m, Some h ->
      Alcotest.(check bool)
        (Printf.sprintf "behaves like the built-in LAN (%.2f vs %.2f)" m h)
        true (h < m)
    | _ -> Alcotest.fail "fetch failed");
    Alcotest.(check bool) "content cached at R" true
      (Content_store.mem (Node.content_store r) n);
    Alcotest.(check int) "node count" 4 (List.length topo.Topology_spec.nodes)

let test_topology_spec_errors () =
  let expect_error spec fragment =
    match Topology_spec.parse spec with
    | Ok _ -> Alcotest.failf "expected failure for %S" spec
    | Error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      if not (contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment
  in
  expect_error "link A B" "undeclared node";
  expect_error "node A\nnode A" "duplicate node";
  expect_error "node A\nnode B\nroute A /p via B" "no such link";
  expect_error "frobnicate" "unknown directive";
  expect_error "node A cs=lots" "expected an integer";
  expect_error "node A\nnode B\nlink A B latency=warp:9" "unknown latency model"

let test_topology_spec_latency_grammar () =
  (match Topology_spec.parse_latency "const:3.5" with
  | Ok (Sim.Latency.Constant c) -> Alcotest.(check (float 1e-9)) "const" 3.5 c
  | _ -> Alcotest.fail "const parse");
  (match Topology_spec.parse_latency "normal:1:0.2:0.1+const:2" with
  | Ok (Sim.Latency.Sum [ Sim.Latency.Normal _; Sim.Latency.Constant _ ]) -> ()
  | _ -> Alcotest.fail "sum parse");
  match Topology_spec.parse_latency "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus must fail"

let test_topology_spec_comments_and_blanks () =
  match Topology_spec.parse "\n# just comments\n\n   \n" with
  | Ok topo -> Alcotest.(check int) "empty topology" 0 (List.length topo.Topology_spec.nodes)
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* --- interest loops --- *)

let test_interest_loop_suppressed () =
  (* Triangle A-B-C with deliberately circular routes for /loop: the
     nonce-based Duplicate detection in the PIT must stop the cycle. *)
  let net = Network.create ~seed:33 () in
  let a = Network.add_node net "A" in
  let b = Network.add_node net "B" in
  let c = Network.add_node net "C" in
  let fab, _fba = Network.connect net ~latency:(Sim.Latency.Constant 1.) a b in
  let fbc, _fcb = Network.connect net ~latency:(Sim.Latency.Constant 1.) b c in
  let fca, _fac = Network.connect net ~latency:(Sim.Latency.Constant 1.) c a in
  let prefix = name "/loop" in
  Network.route net a ~prefix ~via:fab;
  Network.route net b ~prefix ~via:fbc;
  Network.route net c ~prefix ~via:fca;
  Node.express_interest a (name "/loop/x")
    ~on_data:(fun ~rtt_ms:_ _ -> Alcotest.fail "no data exists")
    ~on_timeout:(fun () -> ());
  (* Run with a generous event bound: without loop suppression this
     would spin forever (max_events would be exhausted). *)
  Sim.Engine.run ~max_events:5_000 (Network.engine net);
  Alcotest.(check bool) "simulation quiesced" true
    (Sim.Engine.events_processed (Network.engine net) < 5_000);
  (* The interest circulated at most once around the triangle. *)
  Alcotest.(check bool) "A forwarded a bounded number of interests" true
    ((Node.counters a).Node.interests_forwarded <= 2)

let qcheck_tests =
  let name_gen =
    QCheck.Gen.(
      map
        (fun comps -> Name.of_components comps)
        (list_size (int_range 1 5)
           (string_size ~gen:(char_range 'a' 'f') (int_range 1 3))))
  in
  let arb_name = QCheck.make ~print:Name.to_string name_gen in
  [
    trie_model_property;
    name_index_model_property;
    pit_model_property;
    QCheck.Test.make ~name:"of_string/to_string roundtrip" ~count:300 arb_name
      (fun n -> Name.equal n (Name.of_string (Name.to_string n)));
    QCheck.Test.make ~name:"is_prefix of self" ~count:300 arb_name (fun n ->
        Name.is_prefix ~prefix:n n);
    QCheck.Test.make ~name:"parent is prefix" ~count:300 arb_name (fun n ->
        match Name.parent n with
        | Some p -> Name.is_strict_prefix ~prefix:p n
        | None -> Name.equal n Name.root);
    QCheck.Test.make ~name:"append extends by one" ~count:300 arb_name (fun n ->
        Name.length (Name.append n "x") = Name.length n + 1);
    QCheck.Test.make ~name:"concat length additive" ~count:300
      (QCheck.pair arb_name arb_name)
      (fun (a, b) -> Name.length (Name.concat a b) = Name.length a + Name.length b);
    QCheck.Test.make ~name:"compare consistent with equal" ~count:300
      (QCheck.pair arb_name arb_name)
      (fun (a, b) -> Name.compare a b = 0 = Name.equal a b);
    QCheck.Test.make ~name:"trie find = add" ~count:200
      (QCheck.list (QCheck.pair arb_name QCheck.small_int))
      (fun bindings ->
        let t = Name_trie.create () in
        List.iter (fun (n, v) -> Name_trie.add t n v) bindings;
        (* last binding for each name wins *)
        let expected = Hashtbl.create 16 in
        List.iter (fun (n, v) -> Hashtbl.replace expected (Name.to_string n) v) bindings;
        Hashtbl.fold
          (fun ns v acc -> acc && Name_trie.find t (Name.of_string ns) = Some v)
          expected true);
    QCheck.Test.make ~name:"trie longest_prefix returns a true prefix" ~count:200
      (QCheck.pair (QCheck.list (QCheck.pair arb_name QCheck.small_int)) arb_name)
      (fun (bindings, query) ->
        let t = Name_trie.create () in
        List.iter (fun (n, v) -> Name_trie.add t n v) bindings;
        match Name_trie.longest_prefix t query with
        | None -> true
        | Some (p, _) -> Name.is_prefix ~prefix:p query);
    QCheck.Test.make ~name:"cs never exceeds capacity" ~count:100
      (QCheck.pair (QCheck.int_range 1 20) (QCheck.list_of_size (QCheck.Gen.int_range 0 80) QCheck.small_int))
      (fun (cap, inserts) ->
        let cs = Content_store.create ~capacity:cap () in
        List.iteri
          (fun i id ->
            Content_store.insert cs ~now:(float_of_int i)
              (mk_data (Printf.sprintf "/x/%d" id)) ())
          inserts;
        Content_store.size cs <= cap);
    QCheck.Test.make ~name:"wire roundtrip for random packets" ~count:200
      (QCheck.pair arb_name (QCheck.pair QCheck.string QCheck.bool))
      (fun (n, (payload, priv)) ->
        let d =
          Data.create ~producer_private:priv ~producer:"P" ~key:"k" ~payload n
        in
        match Wire.decode_packet (Wire.encode_packet (Packet.Data d)) with
        | Ok (Packet.Data d') ->
          Name.equal d.Data.name d'.Data.name
          && d.Data.payload = d'.Data.payload
          && Data.verify d' ~key:"k"
        | Ok (Packet.Interest _ | Packet.Nack _) | Error _ -> false);
    QCheck.Test.make ~name:"segmentation split/concat roundtrip" ~count:200
      (QCheck.pair QCheck.string (QCheck.int_range 1 64))
      (fun (payload, segment_size) ->
        String.concat "" (Segmentation.split ~payload ~segment_size) = payload);
    QCheck.Test.make ~name:"segmentation chunk sizes bounded" ~count:200
      (QCheck.pair QCheck.string (QCheck.int_range 1 64))
      (fun (payload, segment_size) ->
        List.for_all
          (fun c -> String.length c <= segment_size)
          (Segmentation.split ~payload ~segment_size));
    QCheck.Test.make ~name:"rtt estimator rto bounded" ~count:200
      (QCheck.list (QCheck.float_range 0.1 10_000.))
      (fun samples ->
        let e = Consumer.Rtt_estimator.create () in
        List.iter (fun rtt_ms -> Consumer.Rtt_estimator.observe e ~rtt_ms) samples;
        let rto = Consumer.Rtt_estimator.rto e in
        rto >= 10. && rto <= 60_000.);
    QCheck.Test.make ~name:"pit satisfy clears pending" ~count:200
      (QCheck.list_of_size (QCheck.Gen.int_range 1 20) (QCheck.pair arb_name QCheck.small_int))
      (fun inserts ->
        let pit = Pit.create () in
        List.iteri
          (fun i (n, face) ->
            ignore (Pit.insert pit ~now:0. ~face ~nonce:(Int64.of_int i) n))
          inserts;
        List.for_all
          (fun (n, _) ->
            ignore (Pit.satisfy_timed pit n);
            not (Pit.pending pit n))
          inserts);
  ]

let () =
  Alcotest.run "ndn"
    [
      ( "name",
        [
          Alcotest.test_case "parsing" `Quick test_name_parsing;
          Alcotest.test_case "to_string" `Quick test_name_to_string;
          Alcotest.test_case "invalid components" `Quick test_name_invalid_component;
          Alcotest.test_case "append/parent/last" `Quick test_name_append_parent_last;
          Alcotest.test_case "prefix semantics" `Quick test_name_prefix_semantics;
          Alcotest.test_case "prefix extraction" `Quick test_name_prefix_extraction;
          Alcotest.test_case "namespace" `Quick test_name_namespace;
          Alcotest.test_case "ordering & hash" `Quick test_name_ordering_and_hash;
          Alcotest.test_case "concat" `Quick test_name_concat;
          Alcotest.test_case "containers" `Quick test_name_containers;
        ] );
      ( "name_index",
        [ Alcotest.test_case "delete across the wrap" `Quick test_name_index_wrap_delete ] );
      ( "trie",
        [
          Alcotest.test_case "find exact" `Quick test_trie_find_exact;
          Alcotest.test_case "replace" `Quick test_trie_replace;
          Alcotest.test_case "remove prunes" `Quick test_trie_remove_prunes;
          Alcotest.test_case "remove keeps descendants" `Quick
            test_trie_remove_keeps_descendants;
          Alcotest.test_case "longest prefix" `Quick test_trie_longest_prefix;
          Alcotest.test_case "root binding" `Quick test_trie_root_binding;
          Alcotest.test_case "fold prefixes" `Quick test_trie_fold_prefixes;
          Alcotest.test_case "first extension" `Quick test_trie_first_extension;
          Alcotest.test_case "subtree order" `Quick test_trie_fold_subtree_order;
          Alcotest.test_case "to_list & clear" `Quick test_trie_to_list_and_clear;
        ] );
      ( "packets",
        [
          Alcotest.test_case "interest scope" `Quick test_interest_scope;
          Alcotest.test_case "zero scope rejected" `Quick test_interest_rejects_zero_scope;
          Alcotest.test_case "data signature" `Quick test_data_signature;
          Alcotest.test_case "signature covers flags" `Quick
            test_data_signature_covers_flags;
          Alcotest.test_case "freshness" `Quick test_data_freshness;
          Alcotest.test_case "packet accessors" `Quick test_packet_accessors;
        ] );
      ( "content_store",
        [
          Alcotest.test_case "insert/lookup" `Quick test_cs_insert_lookup;
          Alcotest.test_case "lru eviction" `Quick test_cs_lru_eviction;
          Alcotest.test_case "fifo eviction" `Quick test_cs_fifo_eviction;
          Alcotest.test_case "lfu eviction" `Quick test_cs_lfu_eviction;
          Alcotest.test_case "random needs rng" `Quick test_cs_random_eviction_needs_rng;
          Alcotest.test_case "random eviction" `Quick test_cs_random_eviction;
          Alcotest.test_case "unbounded" `Quick test_cs_unbounded;
          Alcotest.test_case "reinsert refreshes" `Quick test_cs_reinsert_refreshes;
          Alcotest.test_case "prefix matching" `Quick test_cs_prefix_matching;
          Alcotest.test_case "strict match blocks prefix probe" `Quick
            test_cs_strict_match_blocks_prefix_probing;
          Alcotest.test_case "freshness expiry" `Quick test_cs_freshness_expiry;
          Alcotest.test_case "peek side-effect free" `Quick test_cs_peek_no_side_effects;
          Alcotest.test_case "meta" `Quick test_cs_meta;
          Alcotest.test_case "remove & clear" `Quick test_cs_remove_and_clear;
          Alcotest.test_case "access counts" `Quick test_cs_access_count_and_recency;
        ] );
      ( "pit",
        [
          Alcotest.test_case "insert & collapse" `Quick test_pit_insert_collapse;
          Alcotest.test_case "satisfy" `Quick test_pit_satisfy;
          Alcotest.test_case "satisfy by extension" `Quick test_pit_satisfy_by_extension;
          Alcotest.test_case "satisfy dedups faces" `Quick test_pit_satisfy_dedups_faces;
          Alcotest.test_case "satisfy timed" `Quick test_pit_satisfy_timed;
          Alcotest.test_case "expire" `Quick test_pit_expire;
        ] );
      ( "fib",
        [
          Alcotest.test_case "longest prefix" `Quick test_fib_longest_prefix;
          Alcotest.test_case "multiple faces" `Quick test_fib_multiple_faces;
          Alcotest.test_case "remove" `Quick test_fib_remove;
          Alcotest.test_case "no route" `Quick test_fib_no_route;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "end-to-end fetch" `Quick test_end_to_end_fetch;
          Alcotest.test_case "hit faster than miss" `Quick test_cache_hit_faster_than_miss;
          Alcotest.test_case "interest collapsing" `Quick test_interest_collapsing_at_router;
          Alcotest.test_case "scope 2 probing" `Quick test_scope_2_hit_vs_miss;
          Alcotest.test_case "scope ignorable" `Quick test_scope_ignored_when_disabled;
          Alcotest.test_case "timeout & no route" `Quick test_pit_timeout_no_route;
          Alcotest.test_case "loss & retransmission" `Quick
            test_packet_loss_and_retransmission;
          Alcotest.test_case "unknown namespace" `Quick test_producer_only_serves_its_prefix;
          Alcotest.test_case "local host probing" `Quick test_local_host_probing;
          Alcotest.test_case "caching disabled" `Quick test_node_caching_disabled;
          Alcotest.test_case "data directed by PIT" `Quick
            test_data_flows_only_where_requested;
        ] );
      ( "wire",
        [
          Alcotest.test_case "interest roundtrip" `Quick test_wire_interest_roundtrip;
          Alcotest.test_case "data roundtrip" `Quick test_wire_data_roundtrip;
          Alcotest.test_case "packet dispatch" `Quick test_wire_packet_dispatch;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "trailing bytes" `Quick test_wire_trailing_bytes_rejected;
          Alcotest.test_case "encoded size" `Quick test_wire_encoded_size;
        ] );
      ( "consumer",
        [
          Alcotest.test_case "clean link" `Quick test_consumer_fetch_clean_link;
          Alcotest.test_case "retransmits through loss" `Quick
            test_consumer_retransmits_through_loss;
          Alcotest.test_case "gives up" `Quick test_consumer_gives_up;
          Alcotest.test_case "fetch sequence" `Quick test_consumer_fetch_sequence;
          Alcotest.test_case "rtt estimator" `Quick test_rtt_estimator;
        ] );
      ( "topology_spec",
        [
          Alcotest.test_case "end to end" `Quick test_topology_spec_end_to_end;
          Alcotest.test_case "errors" `Quick test_topology_spec_errors;
          Alcotest.test_case "latency grammar" `Quick test_topology_spec_latency_grammar;
          Alcotest.test_case "comments and blanks" `Quick
            test_topology_spec_comments_and_blanks;
          Alcotest.test_case "interest loop suppressed" `Quick
            test_interest_loop_suppressed;
        ] );
      ( "segmentation",
        [
          Alcotest.test_case "split" `Quick test_segmentation_split;
          Alcotest.test_case "names" `Quick test_segmentation_names;
          Alcotest.test_case "producer handler" `Quick test_segmentation_handler;
          Alcotest.test_case "fetch_all" `Quick test_segmentation_fetch_all;
          Alcotest.test_case "missing segment" `Quick
            test_segmentation_fetch_all_missing_segment;
          Alcotest.test_case "segments cached" `Quick
            test_segmentation_second_fetch_from_cache;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
