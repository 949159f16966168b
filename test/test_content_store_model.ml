(* Model-based property test: Ndn.Content_store under random op
   sequences (insert / exact lookup / prefix lookup / clock advance /
   flush) must agree with a naive list-based reference model.

   For LRU and FIFO the model predicts the cache contents exactly:
   both policies evict from the tail of a recency/insertion list, so a
   handful of list operations specify the whole observable behavior
   (including freshness expiry, which removes stale entries on lookup).

   Random replacement picks its victim from the store's RNG, which a
   black-box model cannot predict; there the model keeps an insertion
   shadow and checks every property that holds for *any* victim choice:
   size bounds, presence of the most recent insert, misses on
   never-inserted or stale names, and counter consistency.  A prefix
   lookup's answer depends only on what is cached, so for random
   replacement it is predicted from a snapshot of the store taken just
   before the lookup.

   A non-exact lookup that misses the exact name is answered by the
   store's length census when no cached name is longer than the query,
   and the store builds its prefix index only on the first one that
   could find a longer name.  So the prefix generators first run an
   exact-only stretch of churn, evictions and expiries, then mix in
   prefix lookups and flushes; the census generator runs a stretch
   where every cached name has the same length (its misses never reach
   the index) before longer and shorter names arrive.  Deterministic
   cases pin the census's edges: a longer name arriving after census
   misses, the eviction or expiry of the last longer name, strict
   objects and a flush. *)

(* --- operation language --- *)

type op =
  | Insert of int * float option * bool
      (* name index, freshness_ms, strict_match *)
  | Lookup of int
  | Lookup_prefix of int  (* query index, [~exact:false] *)
  | Advance of float  (* move the virtual clock forward, ms *)
  | Flush

(* Cacheable names: interior names and leaves of one hierarchy, so a
   prefix query can have several cached extensions. *)
let paths =
  [|
    [ "model"; "a" ];
    [ "model"; "a"; "1" ];
    [ "model"; "a"; "2" ];
    [ "model"; "a"; "2"; "x" ];
    [ "model"; "b"; "1" ];
    [ "model"; "b"; "2" ];
    [ "model"; "c" ];
    [ "model"; "d"; "1" ];
  |]

let universe = Array.length paths
let capacity = 3

let names = Array.map Ndn.Name.of_components paths

(* Prefix queries: every cacheable name, then the root, interior names
   that are never cached, a name with no cached extension and one below
   a leaf. *)
let query_paths =
  Array.append paths
    [|
      [];
      [ "model" ];
      [ "model"; "b" ];
      [ "model"; "d" ];
      [ "model"; "e" ];
      [ "model"; "a"; "2"; "x"; "y" ];
    |]

let queries = Array.map Ndn.Name.of_components query_paths

let pp_op = function
  | Insert (i, f, strict) ->
    Printf.sprintf "insert %d%s%s" i
      (match f with None -> "" | Some f -> Printf.sprintf " (fresh %.0fms)" f)
      (if strict then " strict" else "")
  | Lookup i -> Printf.sprintf "lookup %d" i
  | Lookup_prefix q -> Printf.sprintf "prefix-lookup %s" (Ndn.Name.to_string queries.(q))
  | Advance dt -> Printf.sprintf "advance %.0fms" dt
  | Flush -> "flush"

(* Signing on every insert is wasteful inside a property test: intern
   one data object per (name, freshness, strictness). *)
let data_cache = Hashtbl.create 32

let data_of i freshness strict =
  match Hashtbl.find_opt data_cache (i, freshness, strict) with
  | Some d -> d
  | None ->
    let d =
      Ndn.Data.create ?freshness_ms:freshness ~strict_match:strict ~producer:"model"
        ~key:"model-key" ~payload:"x" names.(i)
    in
    Hashtbl.add data_cache (i, freshness, strict) d;
    d

let gen_exact_op =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun i f strict -> Insert (i, f, strict))
            (int_bound (universe - 1))
            (frequency
               [ (3, return None); (1, return (Some 5.)); (1, return (Some 20.)) ])
            (frequency [ (3, return false); (1, return true) ]) );
        (5, map (fun i -> Lookup i) (int_bound (universe - 1)));
        (2, map (fun dt -> Advance (float_of_int dt)) (int_range 1 12));
      ])

let gen_mixed_op =
  QCheck.Gen.(
    frequency
      [
        (10, gen_exact_op);
        (5, map (fun q -> Lookup_prefix q) (int_bound (Array.length queries - 1)));
        (1, return Flush);
      ])

(* Names of one length (three components) and the queries no shorter
   than them: while only these are cached, no cached name is longer
   than a query, so every prefix miss is answered by the census. *)
let equal_length = [| 1; 2; 4; 5; 7 |]

let long_queries =
  Array.of_list
    (List.filter
       (fun q -> List.length query_paths.(q) >= 3)
       (List.init (Array.length queries) Fun.id))

let gen_equal_length_op =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun i f strict -> Insert (equal_length.(i), f, strict))
            (int_bound (Array.length equal_length - 1))
            (frequency
               [ (3, return None); (1, return (Some 5.)); (1, return (Some 20.)) ])
            (frequency [ (3, return false); (1, return true) ]) );
        (5, map (fun i -> Lookup_prefix long_queries.(i)) (int_bound (Array.length long_queries - 1)));
        (2, map (fun i -> Lookup equal_length.(i)) (int_bound (Array.length equal_length - 1)));
        (2, map (fun dt -> Advance (float_of_int dt)) (int_range 1 12));
      ])

let print_ops ops = String.concat "; " (List.map pp_op ops)

let arb_ops =
  QCheck.make ~print:print_ops QCheck.Gen.(list_size (int_range 1 60) gen_exact_op)

(* Exact-only churn, then prefix lookups among further churn. *)
let arb_prefix_ops =
  QCheck.make ~print:print_ops
    QCheck.Gen.(
      map2 ( @ )
        (list_size (int_range 0 60) gen_exact_op)
        (list_size (int_range 1 60) gen_mixed_op))

(* Equal-length churn with census-answered misses, then every name
   length, evictions, expiries and flushes. *)
let arb_census_ops =
  QCheck.make ~print:print_ops
    QCheck.Gen.(
      map2 ( @ )
        (list_size (int_range 1 40) gen_equal_length_op)
        (list_size (int_range 1 60) gen_mixed_op))

(* --- exact reference model for LRU / FIFO --- *)

(* Head of the list = most recently used (LRU) / most recently inserted
   (FIFO); eviction takes the last element, mirroring the store's
   intrusive list. *)
type model_entry = {
  idx : int;
  inserted_at : float;
  freshness : float option;
  strict : bool;
}

let model_fresh now e =
  match e.freshness with None -> true | Some f -> now -. e.inserted_at <= f

let model_insert model ~now idx freshness strict =
  let model = List.filter (fun e -> e.idx <> idx) model in
  let rec trim m =
    if capacity > 0 && List.length m >= capacity then
      trim (List.filteri (fun i _ -> i < List.length m - 1) m)
    else m
  in
  { idx; inserted_at = now; freshness; strict } :: trim model

let model_lookup ~policy model ~now idx =
  match List.find_opt (fun e -> e.idx = idx) model with
  | None -> (false, model)
  | Some e ->
    if not (model_fresh now e) then
      (* Stale entries are expired by the lookup, not returned. *)
      (false, List.filter (fun e' -> e'.idx <> idx) model)
    else
      let model =
        match policy with
        | Ndn.Eviction.Lru ->
          e :: List.filter (fun e' -> e'.idx <> idx) model
        | _ -> model (* FIFO: hits do not reorder *)
      in
      (true, model)

let rec is_prefix q p =
  match (q, p) with
  | [], _ -> true
  | c :: q, c' :: p -> String.equal c c' && is_prefix q p
  | _ :: _, [] -> false

(* NDN matching of query [q]: the exact name if cached (strict or not),
   else the smallest cached extension in canonical order — component
   lists compared element-wise, a prefix before its extensions — whose
   object is not strict-match.  A stale answer is expired and the
   search retried.  Returns the hit's index, the model after the
   lookup, and the number of expirations. *)
let rec model_prefix_lookup ~policy model ~now q =
  let qp = query_paths.(q) in
  let candidate =
    match List.find_opt (fun e -> paths.(e.idx) = qp) model with
    | Some e -> Some e
    | None -> (
      List.filter (fun e -> (not e.strict) && is_prefix qp paths.(e.idx)) model
      |> List.sort (fun a b -> compare paths.(a.idx) paths.(b.idx))
      |> function
      | [] -> None
      | e :: _ -> Some e)
  in
  let without e = List.filter (fun e' -> e'.idx <> e.idx) model in
  match candidate with
  | None -> (None, model)
  | Some e when not (model_fresh now e) -> model_prefix_lookup ~policy (without e) ~now q
  | Some e -> (
    match policy with
    | Ndn.Eviction.Lru -> (Some e.idx, e :: without e)
    | _ -> (Some e.idx, model))

let index_of_name =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.add tbl (Ndn.Name.to_string n) i) names;
  fun n -> Hashtbl.find tbl (Ndn.Name.to_string n)

let store_prefix_lookup cs ~now q =
  Ndn.Content_store.lookup cs ~now queries.(q)
  |> Option.map (fun e -> index_of_name e.Ndn.Content_store.data.Ndn.Data.name)

let check_prefix_answer label q ~store ~model =
  let show = function None -> "miss" | Some i -> Ndn.Name.to_string names.(i) in
  if store <> model then
    QCheck.Test.fail_reportf "%s: prefix-lookup %s store=%s model=%s" label
      (Ndn.Name.to_string queries.(q)) (show store) (show model)

let store_contents cs =
  Ndn.Content_store.fold cs ~init:[] ~f:(fun acc e ->
      Ndn.Name.to_string e.Ndn.Content_store.data.Ndn.Data.name :: acc)
  |> List.sort compare

let model_contents model =
  List.map (fun e -> Ndn.Name.to_string names.(e.idx)) model |> List.sort compare

let model_agrees policy ops =
  let cs = Ndn.Content_store.create ~policy ~capacity () in
  let rec go model now = function
    | [] -> true
    | op :: rest ->
      let model, now =
        match op with
        | Insert (idx, freshness, strict) ->
          Ndn.Content_store.insert cs ~now (data_of idx freshness strict) ();
          (model_insert model ~now idx freshness strict, now)
        | Lookup idx ->
          let store_hit =
            Ndn.Content_store.lookup cs ~now ~exact:true names.(idx)
            |> Option.is_some
          in
          let model_hit, model = model_lookup ~policy model ~now idx in
          if store_hit <> model_hit then
            QCheck.Test.fail_reportf "%s: lookup %d store=%b model=%b"
              (Ndn.Eviction.to_string policy) idx store_hit model_hit;
          (model, now)
        | Lookup_prefix q ->
          let store = store_prefix_lookup cs ~now q in
          let hit, model = model_prefix_lookup ~policy model ~now q in
          check_prefix_answer (Ndn.Eviction.to_string policy) q ~store ~model:hit;
          (model, now)
        | Advance dt -> (model, now +. dt)
        | Flush ->
          Ndn.Content_store.flush cs ~now;
          ([], now)
      in
      if Ndn.Content_store.size cs <> List.length model then
        QCheck.Test.fail_reportf "%s after %s: size store=%d model=%d"
          (Ndn.Eviction.to_string policy) (pp_op op)
          (Ndn.Content_store.size cs) (List.length model);
      if store_contents cs <> model_contents model then
        QCheck.Test.fail_reportf "%s after %s: contents diverge"
          (Ndn.Eviction.to_string policy) (pp_op op);
      go model now rest
  in
  go [] 0. ops

(* --- invariant shadow for Random_replacement --- *)

let random_invariants_hold seed ops =
  let cs =
    Ndn.Content_store.create ~policy:Ndn.Eviction.Random_replacement
      ~rng:(Sim.Rng.create seed) ~capacity ()
  in
  (* Shadow: last insertion time and freshness per name, eviction
     ignored — an upper bound on what can still be cached. *)
  let shadow = Hashtbl.create 16 in
  let rec go now = function
    | [] -> true
    | op :: rest ->
      let now =
        match op with
        | Insert (idx, freshness, strict) ->
          Ndn.Content_store.insert cs ~now (data_of idx freshness strict) ();
          Hashtbl.replace shadow idx (now, freshness);
          if not (Ndn.Content_store.mem cs names.(idx)) then
            QCheck.Test.fail_reportf "inserted %d not present" idx;
          now
        | Lookup idx ->
          let hit =
            Ndn.Content_store.lookup cs ~now ~exact:true names.(idx)
            |> Option.is_some
          in
          (match (hit, Hashtbl.find_opt shadow idx) with
          | true, None -> QCheck.Test.fail_reportf "hit on never-inserted %d" idx
          | true, Some (at, freshness) ->
            let fresh =
              match freshness with None -> true | Some f -> now -. at <= f
            in
            if not fresh then
              QCheck.Test.fail_reportf "hit on stale %d (age %.0f)" idx (now -. at)
          | false, _ -> ());
          now
        | Lookup_prefix q ->
          let snapshot =
            Ndn.Content_store.fold cs ~init:[] ~f:(fun acc e ->
                let d = e.Ndn.Content_store.data in
                {
                  idx = index_of_name d.Ndn.Data.name;
                  inserted_at = e.Ndn.Content_store.inserted_at;
                  freshness = d.Ndn.Data.freshness_ms;
                  strict = d.Ndn.Data.strict_match;
                }
                :: acc)
          in
          let model, _ =
            model_prefix_lookup ~policy:Ndn.Eviction.Random_replacement snapshot ~now q
          in
          check_prefix_answer "random" q ~store:(store_prefix_lookup cs ~now q) ~model;
          now
        | Advance dt -> now +. dt
        | Flush ->
          Ndn.Content_store.flush cs ~now;
          if Ndn.Content_store.size cs <> 0 then
            QCheck.Test.fail_reportf "flush left %d entries" (Ndn.Content_store.size cs);
          now
      in
      if Ndn.Content_store.size cs > capacity then
        QCheck.Test.fail_reportf "size %d exceeds capacity %d"
          (Ndn.Content_store.size cs) capacity;
      go now rest
  in
  let ok = go 0. ops in
  let c = Ndn.Content_store.counters cs in
  ok
  && c.Ndn.Content_store.hits + c.Ndn.Content_store.misses
     = c.Ndn.Content_store.lookups

let qcheck_tests =
  [
    QCheck.Test.make ~name:"content store agrees with list model (LRU)" ~count:400
      arb_ops
      (model_agrees Ndn.Eviction.Lru);
    QCheck.Test.make ~name:"content store agrees with list model (FIFO)" ~count:400
      arb_ops
      (model_agrees Ndn.Eviction.Fifo);
    QCheck.Test.make ~name:"random replacement invariants" ~count:400
      QCheck.(pair (make Gen.(int_bound 1_000_000) ~print:string_of_int) arb_ops)
      (fun (seed, ops) -> random_invariants_hold seed ops);
    QCheck.Test.make ~name:"prefix lookups agree with list model (LRU)" ~count:400
      arb_prefix_ops
      (model_agrees Ndn.Eviction.Lru);
    QCheck.Test.make ~name:"prefix lookups agree with list model (FIFO)" ~count:400
      arb_prefix_ops
      (model_agrees Ndn.Eviction.Fifo);
    QCheck.Test.make ~name:"prefix lookups under random replacement" ~count:400
      QCheck.(pair (make Gen.(int_bound 1_000_000) ~print:string_of_int) arb_prefix_ops)
      (fun (seed, ops) -> random_invariants_hold seed ops);
    QCheck.Test.make ~name:"census misses agree with list model (LRU)" ~count:400
      arb_census_ops
      (model_agrees Ndn.Eviction.Lru);
    QCheck.Test.make ~name:"census misses agree with list model (FIFO)" ~count:400
      arb_census_ops
      (model_agrees Ndn.Eviction.Fifo);
    QCheck.Test.make ~name:"census misses under random replacement" ~count:400
      QCheck.(pair (make Gen.(int_bound 1_000_000) ~print:string_of_int) arb_census_ops)
      (fun (seed, ops) -> random_invariants_hold seed ops);
  ]

(* --- the census's edges, case by case --- *)

let census_data ?freshness ?(strict = false) path =
  Ndn.Data.create ?freshness_ms:freshness ~strict_match:strict ~producer:"model"
    ~key:"model-key" ~payload:"x" (Ndn.Name.of_string path)

let census_store ?(capacity = 8) policy =
  Ndn.Content_store.create ~policy ~rng:(Sim.Rng.create 5) ~capacity ()

let answer cs ~now q =
  Ndn.Content_store.lookup cs ~now (Ndn.Name.of_string q)
  |> Option.map (fun e -> Ndn.Name.to_string e.Ndn.Content_store.data.Ndn.Data.name)

let check_answer msg want got = Alcotest.(check (option string)) msg want got

let check_counts msg cs ~lookups ~hits ~expirations =
  let c = Ndn.Content_store.counters cs in
  Alcotest.(check (list int))
    (msg ^ ": lookups, hits, misses, expirations")
    [ lookups; hits; lookups - hits; expirations ]
    [
      c.Ndn.Content_store.lookups;
      c.Ndn.Content_store.hits;
      c.Ndn.Content_store.misses;
      c.Ndn.Content_store.expirations;
    ]

let policies =
  [ Ndn.Eviction.Lru; Ndn.Eviction.Fifo; Ndn.Eviction.Lfu; Ndn.Eviction.Random_replacement ]

(* Misses answered by the census, then a longer name arrives: the next
   query of its prefix must find it. *)
let test_longer_after_census_misses () =
  List.iter
    (fun policy ->
      let cs = census_store policy in
      Ndn.Content_store.insert cs ~now:0. (census_data "/s/a/1") ();
      Ndn.Content_store.insert cs ~now:0. (census_data "/s/b/1") ();
      check_answer "census miss" None (answer cs ~now:1. "/s/c/1");
      check_answer "exact hit" (Some "/s/a/1") (answer cs ~now:1. "/s/a/1");
      check_answer "longer query" None (answer cs ~now:1. "/s/a/1/v");
      Ndn.Content_store.insert cs ~now:2. (census_data "/s/c/1/v") ();
      check_answer "extension after census misses" (Some "/s/c/1/v")
        (answer cs ~now:3. "/s/c/1");
      check_answer "shorter query" (Some "/s/a/1") (answer cs ~now:3. "/s/a");
      check_counts (Ndn.Eviction.to_string policy) cs ~lookups:5 ~hits:3 ~expirations:0)
    policies

(* The last longer name leaves by eviction: its prefix misses again,
   and a new longer name is found through the maintained index. *)
let test_last_longer_evicted () =
  List.iter
    (fun policy ->
      let cs = census_store ~capacity:1 policy in
      Ndn.Content_store.insert cs ~now:0. (census_data "/s/a/1/v") ();
      check_answer "extension" (Some "/s/a/1/v") (answer cs ~now:1. "/s/a/1");
      Ndn.Content_store.insert cs ~now:2. (census_data "/s/b/1") ();
      Alcotest.(check int) "evicted" 1
        (Ndn.Content_store.counters cs).Ndn.Content_store.evictions;
      check_answer "miss after eviction" None (answer cs ~now:3. "/s/a/1");
      check_answer "equal-length miss" None (answer cs ~now:3. "/s/c/1");
      Ndn.Content_store.insert cs ~now:4. (census_data "/s/a/1/w") ();
      check_answer "new extension" (Some "/s/a/1/w") (answer cs ~now:5. "/s/a/1");
      check_counts (Ndn.Eviction.to_string policy) cs ~lookups:4 ~hits:2 ~expirations:0)
    policies

(* A strict object answers only its own name; a stale longer name is
   expired by the lookup that finds it, after which the census alone
   answers. *)
let test_strict_and_expiry () =
  List.iter
    (fun policy ->
      let cs = census_store policy in
      Ndn.Content_store.insert cs ~now:0. (census_data ~strict:true "/s/a/1/v") ();
      check_answer "strict extension" None (answer cs ~now:1. "/s/a/1");
      check_answer "strict exact" (Some "/s/a/1/v") (answer cs ~now:1. "/s/a/1/v");
      Ndn.Content_store.insert cs ~now:0. (census_data ~freshness:5. "/s/b/1/v") ();
      check_answer "fresh extension" (Some "/s/b/1/v") (answer cs ~now:2. "/s/b/1");
      check_answer "stale extension" None (answer cs ~now:10. "/s/b/1");
      Ndn.Content_store.remove cs (Ndn.Name.of_string "/s/a/1/v");
      Ndn.Content_store.insert cs ~now:11. (census_data "/s/c/1") ();
      check_answer "census miss after expiry" None (answer cs ~now:12. "/s/b/1");
      check_counts (Ndn.Eviction.to_string policy) cs ~lookups:5 ~hits:2 ~expirations:1)
    policies

(* A flush empties the census with the store. *)
let test_flush_resets_census () =
  let cs = census_store Ndn.Eviction.Lru in
  Ndn.Content_store.insert cs ~now:0. (census_data "/s/a/1/v") ();
  check_answer "extension" (Some "/s/a/1/v") (answer cs ~now:1. "/s/a/1");
  Ndn.Content_store.flush cs ~now:2.;
  check_answer "nothing after flush" None (answer cs ~now:3. "/s/a/1");
  Ndn.Content_store.insert cs ~now:4. (census_data "/s/a/1") ();
  check_answer "shorter query after flush" (Some "/s/a/1") (answer cs ~now:5. "/s/a");
  check_answer "equal-length miss after flush" None (answer cs ~now:5. "/s/a/2")

let () =
  Alcotest.run "content_store_model"
    [
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "census",
        [
          Alcotest.test_case "longer name after census misses" `Quick
            test_longer_after_census_misses;
          Alcotest.test_case "last longer name evicted" `Quick test_last_longer_evicted;
          Alcotest.test_case "strict objects and expiry" `Quick test_strict_and_expiry;
          Alcotest.test_case "flush resets the census" `Quick test_flush_resets_census;
        ] );
    ]
