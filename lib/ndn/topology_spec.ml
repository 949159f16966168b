type t = {
  network : Network.t;
  nodes : (string * Node.t) list;
  faults : Sim.Fault.schedule;
}

let node t name = List.assoc name t.nodes

(* --- AST ---

   Parsing and building are separate passes: a spec is first read into
   directives (with defaults resolved, so printing is canonical), then
   [build] turns directives into a live network.  Each directive keeps
   its source line so semantic errors still point into the file. *)

type node_decl = {
  node_name : string;
  cs_capacity : int;
  cs_policy : Eviction.t;
  forwarding_delay : Sim.Latency.t;
  honor_scope : bool;
  caching : bool;
}

type link_decl = {
  link_a : string;
  link_b : string;
  latency : Sim.Latency.t;
  latency_back : Sim.Latency.t option;
  loss : float;
}

type route_decl = {
  route_node : string;
  route_prefix : string;
  route_via : string;
}

type producer_decl = {
  producer_node : string;
  producer_prefix : string;
  producer_key : string;
  payload_size : int;
  producer_private : bool;
  production_delay_ms : float;
}

(* --- generated topologies ---

   A [generate] directive expands, at build time, into an entire
   router graph (nodes, links, shortest-path routes toward a producer
   attached at the graph root) drawn by a seeded deterministic
   generator.  The directive itself is what is printed canonically —
   an 11k-router ISP hierarchy stays a one-line spec — while the
   concrete graph is exposed to tests and benches through {!Gen}. *)

type tier_spec = { tier_cs : int; tier_latency : Sim.Latency.t }

type gen_model =
  | Gen_tree of { arity : int; tiers : tier_spec list }
      (** ISP hierarchy: tier 0 is the core root, the last tier the
          access edge; tier [t] has [arity^t] routers, each linked to
          one parent in tier [t-1] with that tier's latency model. *)
  | Gen_ws of {
      ws_n : int;
      ws_k : int;  (** Even; ring-lattice base degree. *)
      ws_beta : float;
      ws_cs : int;
      ws_latency : Sim.Latency.t;
    }
  | Gen_ba of {
      ba_n : int;
      ba_m : int;  (** Edges added per arriving node. *)
      ba_cs : int;
      ba_latency : Sim.Latency.t;
    }

type generate_decl = {
  gen_name : string;  (** Node-label prefix; namespace is ["/" ^ name]. *)
  gen_model : gen_model;
  gen_seed : int;
  gen_policy : Eviction.t;
  gen_payload : int;
}

type directive =
  | Node_decl of node_decl
  | Link_decl of link_decl
  | Route_decl of route_decl
  | Producer_decl of producer_decl
  | Generate_decl of generate_decl
  | Fault_decl of Sim.Fault.event

type spec = (int * directive) list

let directives spec = List.map snd spec

(* --- small parsing helpers --- *)

open Sim.Scan

(* Range checks run at parse time so a bad parameter is reported with
   its line number, not discovered as a NaN latency mid-run. *)
let non_negative name v =
  if Float.is_finite v && v >= 0. then Ok v
  else Error (Printf.sprintf "%s: expected a non-negative number, got %g" name v)

let positive name v =
  if Float.is_finite v && v > 0. then Ok v
  else Error (Printf.sprintf "%s: expected a positive number, got %g" name v)

let probability name v =
  if Float.is_finite v && v >= 0. && v <= 1. then Ok v
  else Error (Printf.sprintf "%s: expected a probability in [0, 1], got %g" name v)

(* [f] over [parts], in order, up to the first error. *)
let map_all f parts =
  let step acc part =
    let* acc = acc in
    let* v = f part in
    Ok (v :: acc)
  in
  let* rev = List.fold_left step (Ok []) parts in
  Ok (List.rev rev)

let rec parse_latency_term s =
  match String.split_on_char ':' s with
  | [ "const"; ms ] ->
    let* ms = float_field "const" ms in
    let* ms = non_negative "const" ms in
    Ok (Sim.Latency.Constant ms)
  | [ "uniform"; lo; hi ] ->
    let* lo = float_field "uniform lo" lo in
    let* hi = float_field "uniform hi" hi in
    let* lo = non_negative "uniform lo" lo in
    let* hi = non_negative "uniform hi" hi in
    if hi < lo then
      Error (Printf.sprintf "uniform: hi %g below lo %g" hi lo)
    else Ok (Sim.Latency.Uniform { lo; hi })
  | [ "normal"; mean; stddev; min ] ->
    let* mean = float_field "normal mean" mean in
    let* stddev = float_field "normal stddev" stddev in
    let* min = float_field "normal min" min in
    let* mean = non_negative "normal mean" mean in
    let* stddev = non_negative "normal stddev" stddev in
    let* min = non_negative "normal min" min in
    Ok (Sim.Latency.Normal { mean; stddev; min })
  | [ "shifted_exp"; shift; rate ] ->
    let* shift = float_field "shifted_exp shift" shift in
    let* rate = float_field "shifted_exp rate" rate in
    let* shift = non_negative "shifted_exp shift" shift in
    let* rate = positive "shifted_exp rate" rate in
    Ok (Sim.Latency.Shifted_exponential { shift; rate })
  | _ ->
    Error
      (Printf.sprintf
         "unknown latency model %S (expected const:MS, uniform:LO:HI, \
          normal:MEAN:SD:MIN, shifted_exp:SHIFT:RATE, or a +-joined sum)"
         s)

and parse_latency s =
  match String.split_on_char '+' s with
  | [ single ] -> parse_latency_term single
  | parts ->
    let* terms = map_all parse_latency_term parts in
    Ok (Sim.Latency.Sum terms)

(* Attribute fields, called with the attribute's name. *)
let policy_field _ v =
  match Eviction.of_string v with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "unknown eviction policy %S" v)

let latency_field _ v = parse_latency v

let probability_field name v =
  let* p = float_field name v in
  probability name p

(* --- directive parsers --- *)

let parse_node_decl tokens =
  match tokens with
  | [] ->
    Error "node: expected a node name, as in 'node R cs=10000 policy=lru'"
  | name :: _ when is_attr name ->
    Error
      (Printf.sprintf
         "node: expected a node name before attributes, got %S" name)
  | name :: attrs ->
    let* attrs =
      parse_attrs ~directive:"node"
        ~allowed:[ "cs"; "policy"; "proc"; "honor_scope"; "caching" ]
        attrs
    in
    let* cs_capacity = attr_field attrs "cs" ~default:0 int_field in
    let* cs_policy = attr_field attrs "policy" ~default:Eviction.Lru policy_field in
    let* forwarding_delay =
      attr_field attrs "proc" ~default:(Sim.Latency.Constant 0.02) latency_field
    in
    let* honor_scope = attr_field attrs "honor_scope" ~default:true bool_field in
    let* caching = attr_field attrs "caching" ~default:true bool_field in
    Ok
      (Node_decl
         { node_name = name; cs_capacity; cs_policy; forwarding_delay;
           honor_scope; caching })

let parse_link_decl tokens =
  match tokens with
  | [] | [ _ ] ->
    Error
      "link: expected two endpoint names, as in 'link U R latency=const:1'"
  | a :: b :: _ when is_attr a || is_attr b ->
    Error "link: expected two endpoint names before attributes"
  | a :: b :: attrs ->
    let* attrs =
      parse_attrs ~directive:"link"
        ~allowed:[ "latency"; "latency_back"; "loss" ]
        attrs
    in
    let* latency =
      attr_field attrs "latency" ~default:(Sim.Latency.Constant 1.) latency_field
    in
    let* latency_back =
      attr_field attrs "latency_back" ~default:None (fun _ v ->
          Result.map Option.some (parse_latency v))
    in
    let* loss = attr_field attrs "loss" ~default:0. probability_field in
    Ok (Link_decl { link_a = a; link_b = b; latency; latency_back; loss })

let parse_route_decl tokens =
  match tokens with
  | [ node; prefix; "via"; via ] ->
    let* _ = checked_field "route" Name.of_string prefix in
    Ok (Route_decl { route_node = node; route_prefix = prefix; route_via = via })
  | _ ->
    Error
      "route: expected 'route NODE PREFIX via NEIGHBOUR', as in \
       'route U /prod via R'"

let parse_producer_decl tokens =
  match tokens with
  | [] | [ _ ] ->
    Error
      "producer: expected 'producer NODE PREFIX [key=K payload=N \
       private=BOOL delay=MS]'"
  | node :: prefix :: _ when is_attr node || is_attr prefix ->
    Error "producer: expected a node name and a prefix before attributes"
  | node :: prefix :: attrs ->
    let* _ = checked_field "producer" Name.of_string prefix in
    let* attrs =
      parse_attrs ~directive:"producer"
        ~allowed:[ "key"; "payload"; "private"; "delay" ]
        attrs
    in
    let producer_key =
      match attr attrs "key" with Some k -> k | None -> node ^ "-key"
    in
    let* payload_size = attr_field attrs "payload" ~default:1024 int_field in
    let* producer_private = attr_field attrs "private" ~default:false bool_field in
    let* production_delay_ms =
      attr_field attrs "delay" ~default:0.4 (fun name v ->
          let* d = float_field name v in
          non_negative name d)
    in
    Ok
      (Producer_decl
         { producer_node = node; producer_prefix = prefix; producer_key;
           payload_size; producer_private; production_delay_ms })

(* Per-tier attributes are ','-separated lists (':' belongs to the
   latency grammar): [cs=100000,10000,1000].  A single value is
   replicated across tiers at parse time so the canonical print always
   writes one value per tier. *)
let list_field name parse_one s =
  match String.split_on_char ',' s with
  | [] | [ "" ] -> Error (Printf.sprintf "%s: empty list" name)
  | parts -> map_all parse_one parts

let stretch_list name k l =
  match l with
  | [ v ] -> Ok (List.init k (fun _ -> v))
  | l when List.length l = k -> Ok l
  | l ->
    Error
      (Printf.sprintf "%s: expected 1 or %d (= tiers) values, got %d" name k
         (List.length l))

(* Refuse parameter combinations whose expansion would not fit in
   memory; the bound is far above the paper-scale runs (an 11k-router
   five-tier hierarchy) but catches a mistyped exponent at parse time. *)
let max_generated_nodes = 2_000_000

let parse_generate_decl tokens =
  match tokens with
  | [] ->
    Error
      "generate: expected a model, as in 'generate tree name=isp arity=10 \
       tiers=5' (models: tree, ws, ba)"
  | model :: attrs ->
    let* allowed =
      match model with
      | "tree" ->
        Ok [ "name"; "arity"; "tiers"; "cs"; "latency"; "policy"; "payload";
             "seed" ]
      | "ws" ->
        Ok [ "name"; "n"; "k"; "beta"; "cs"; "latency"; "policy"; "payload";
             "seed" ]
      | "ba" ->
        Ok [ "name"; "n"; "m"; "cs"; "latency"; "policy"; "payload"; "seed" ]
      | m ->
        Error
          (Printf.sprintf "generate: unknown model %S (expected tree, ws or ba)"
             m)
    in
    let* attrs = parse_attrs ~directive:("generate " ^ model) ~allowed attrs in
    let* gen_name =
      match attr attrs "name" with
      | Some n
        when n <> ""
             && not (String.contains n '/')
             && not (String.contains n ' ') ->
        let* _ = checked_field "generate" Name.of_string ("/" ^ n) in
        Ok n
      | Some n -> Error (Printf.sprintf "generate: invalid name %S" n)
      | None ->
        Error
          "generate: missing name=PREFIX (node-label prefix; the producer \
           serves /PREFIX)"
    in
    let* gen_seed = attr_field attrs "seed" ~default:42 int_field in
    let* gen_policy = attr_field attrs "policy" ~default:Eviction.Lru policy_field in
    let* gen_payload =
      attr_field attrs "payload" ~default:1024 (fun name v ->
          let* p = int_field name v in
          if p > 0 then Ok p else Error "payload: expected a positive size")
    in
    let int_attr key default = attr_field attrs key ~default int_field in
    let* gen_model =
      match model with
      | "tree" ->
        let* arity = int_attr "arity" 4 in
        let* () =
          if arity >= 2 then Ok ()
          else Error "arity: expected at least 2"
        in
        let* cs_list =
          attr_field attrs "cs" ~default:[ 1024 ] (fun name ->
              list_field name (int_field name))
        in
        let* () =
          if List.for_all (fun c -> c >= 0) cs_list then Ok ()
          else Error "cs: expected non-negative capacities"
        in
        let* lat_list =
          attr_field attrs "latency" ~default:[ Sim.Latency.Constant 1. ] (fun name ->
              list_field name parse_latency)
        in
        let* ntiers =
          match attr attrs "tiers" with
          | Some v -> int_field "tiers" v
          | None ->
            let m = max (List.length cs_list) (List.length lat_list) in
            Ok (if m > 1 then m else 3)
        in
        let* () =
          if ntiers >= 2 then Ok ()
          else Error "tiers: expected at least 2 (a core root and an edge)"
        in
        let* () =
          let count = ref 1 and total = ref 1 in
          let ok = ref true in
          for _ = 2 to ntiers do
            count := !count * arity;
            total := !total + !count;
            if !total > max_generated_nodes || !total < 0 then ok := false
          done;
          if !ok then Ok ()
          else
            Error
              (Printf.sprintf
                 "tree: arity=%d tiers=%d expands past %d routers" arity ntiers
                 max_generated_nodes)
        in
        let* cs_list = stretch_list "cs" ntiers cs_list in
        let* lat_list = stretch_list "latency" ntiers lat_list in
        let tiers =
          List.map2
            (fun tier_cs tier_latency -> { tier_cs; tier_latency })
            cs_list lat_list
        in
        Ok (Gen_tree { arity; tiers })
      | "ws" ->
        let* ws_n = int_attr "n" 64 in
        let* ws_k = int_attr "k" 4 in
        let* ws_beta = attr_field attrs "beta" ~default:0.1 probability_field in
        let* ws_cs = int_attr "cs" 1024 in
        let* ws_latency =
          attr_field attrs "latency" ~default:(Sim.Latency.Constant 1.) latency_field
        in
        let* () =
          if ws_n < 4 then Error "ws: expected n >= 4"
          else if ws_n > max_generated_nodes then
            Error (Printf.sprintf "ws: n past %d routers" max_generated_nodes)
          else if ws_k < 2 || ws_k mod 2 <> 0 then
            Error "ws: k must be even and at least 2"
          else if ws_k >= ws_n then Error "ws: k must be below n"
          else if ws_cs < 0 then Error "cs: expected a non-negative capacity"
          else Ok ()
        in
        Ok (Gen_ws { ws_n; ws_k; ws_beta; ws_cs; ws_latency })
      | _ ->
        let* ba_n = int_attr "n" 64 in
        let* ba_m = int_attr "m" 2 in
        let* ba_cs = int_attr "cs" 1024 in
        let* ba_latency =
          attr_field attrs "latency" ~default:(Sim.Latency.Constant 1.) latency_field
        in
        let* () =
          if ba_m < 1 then Error "ba: expected m >= 1"
          else if ba_n <= ba_m + 1 then Error "ba: expected n > m + 1"
          else if ba_n > max_generated_nodes then
            Error (Printf.sprintf "ba: n past %d routers" max_generated_nodes)
          else if ba_cs < 0 then Error "cs: expected a non-negative capacity"
          else Ok ()
        in
        Ok (Gen_ba { ba_n; ba_m; ba_cs; ba_latency })
    in
    Ok (Generate_decl { gen_name; gen_model; gen_seed; gen_policy; gen_payload })

let parse_fault_decl tokens =
  let* event = Sim.Fault.parse_event_tokens tokens in
  Ok (Fault_decl event)

let parse_directive tokens =
  match tokens with
  | "node" :: rest -> parse_node_decl rest
  | "link" :: rest -> parse_link_decl rest
  | "route" :: rest -> parse_route_decl rest
  | "producer" :: rest -> parse_producer_decl rest
  | "generate" :: rest -> parse_generate_decl rest
  | "fault" :: rest -> parse_fault_decl rest
  | directive :: _ ->
    Error
      (Printf.sprintf
         "unknown directive %S (expected node, link, route, producer, \
          generate or fault)"
         directive)
  | [] -> assert false

let parse_spec text =
  let* rev =
    fold_lines text ~init:[] ~f:(fun acc ~line tokens ->
        let* d = parse_directive tokens in
        Ok ((line, d) :: acc))
  in
  Ok (List.rev rev)

(* --- printing ---

   The canonical form: one directive per line, every attribute written
   out explicitly (defaults resolved), floats rendered with just enough
   digits to parse back to the identical value.  [parse_spec] of the
   output yields the same directives, so print/parse is a fixpoint. *)

let rec latency_terms = function
  | Sim.Latency.Sum ts -> List.concat_map latency_terms ts
  | t -> [ t ]

let print_latency_term = function
  | Sim.Latency.Constant ms -> "const:" ^ float_str ms
  | Sim.Latency.Uniform { lo; hi } ->
    Printf.sprintf "uniform:%s:%s" (float_str lo) (float_str hi)
  | Sim.Latency.Normal { mean; stddev; min } ->
    Printf.sprintf "normal:%s:%s:%s" (float_str mean) (float_str stddev)
      (float_str min)
  | Sim.Latency.Shifted_exponential { shift; rate } ->
    Printf.sprintf "shifted_exp:%s:%s" (float_str shift) (float_str rate)
  | Sim.Latency.Sum _ -> assert false (* flattened by latency_terms *)

let print_latency l =
  match latency_terms l with
  | [] -> "const:0"
  | terms -> String.concat "+" (List.map print_latency_term terms)

let print_directive = function
  | Node_decl d ->
    Printf.sprintf "node %s cs=%d policy=%s proc=%s honor_scope=%b caching=%b"
      d.node_name d.cs_capacity
      (Eviction.to_string d.cs_policy)
      (print_latency d.forwarding_delay)
      d.honor_scope d.caching
  | Link_decl d ->
    let back =
      match d.latency_back with
      | Some l -> Printf.sprintf " latency_back=%s" (print_latency l)
      | None -> ""
    in
    Printf.sprintf "link %s %s latency=%s%s loss=%s" d.link_a d.link_b
      (print_latency d.latency) back (float_str d.loss)
  | Route_decl d ->
    Printf.sprintf "route %s %s via %s" d.route_node d.route_prefix d.route_via
  | Producer_decl d ->
    Printf.sprintf "producer %s %s key=%s payload=%d private=%b delay=%s"
      d.producer_node d.producer_prefix d.producer_key d.payload_size
      d.producer_private
      (float_str d.production_delay_ms)
  | Generate_decl d -> (
    let tail =
      Printf.sprintf "policy=%s payload=%d seed=%d"
        (Eviction.to_string d.gen_policy)
        d.gen_payload d.gen_seed
    in
    match d.gen_model with
    | Gen_tree { arity; tiers } ->
      Printf.sprintf "generate tree name=%s arity=%d cs=%s latency=%s %s"
        d.gen_name arity
        (String.concat ","
           (List.map (fun t -> string_of_int t.tier_cs) tiers))
        (String.concat ","
           (List.map (fun t -> print_latency t.tier_latency) tiers))
        tail
    | Gen_ws { ws_n; ws_k; ws_beta; ws_cs; ws_latency } ->
      Printf.sprintf "generate ws name=%s n=%d k=%d beta=%s cs=%d latency=%s %s"
        d.gen_name ws_n ws_k (float_str ws_beta) ws_cs
        (print_latency ws_latency) tail
    | Gen_ba { ba_n; ba_m; ba_cs; ba_latency } ->
      Printf.sprintf "generate ba name=%s n=%d m=%d cs=%d latency=%s %s"
        d.gen_name ba_n ba_m ba_cs (print_latency ba_latency) tail)
  | Fault_decl e -> "fault " ^ Sim.Fault.print_event e

let print spec =
  String.concat "" (List.map (fun (_, d) -> print_directive d ^ "\n") spec)

(* --- deterministic graph generation --- *)

module Gen = struct
  type graph = {
    node_count : int;
    edges : (int * int) list;
    tier : int array;
    root : int;
    edge_routers : int list;
    diameter : int;
  }

  let edge_compare (a1, b1) (a2, b2) =
    match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

  let canonical (a, b) = if a < b then (a, b) else (b, a)

  (* CSR adjacency with each neighbour segment sorted ascending, so
     traversals visit neighbours in id order — parent choice in BFS is
     then a pure function of the edge set, independent of construction
     order. *)
  let adjacency n edges =
    let deg = Array.make n 0 in
    List.iter
      (fun (a, b) ->
        deg.(a) <- deg.(a) + 1;
        deg.(b) <- deg.(b) + 1)
      edges;
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      off.(i + 1) <- off.(i) + deg.(i)
    done;
    let adj = Array.make (max 1 off.(n)) 0 in
    let cursor = Array.copy off in
    List.iter
      (fun (a, b) ->
        adj.(cursor.(a)) <- b;
        cursor.(a) <- cursor.(a) + 1;
        adj.(cursor.(b)) <- a;
        cursor.(b) <- cursor.(b) + 1)
      edges;
    for i = 0 to n - 1 do
      let len = off.(i + 1) - off.(i) in
      if len > 1 then begin
        let seg = Array.sub adj off.(i) len in
        Array.sort Int.compare seg;
        Array.blit seg 0 adj off.(i) len
      end
    done;
    (off, adj)

  let bfs (off, adj) n src =
    let dist = Array.make n (-1) in
    let parent = Array.make n (-1) in
    let q = Queue.create () in
    dist.(src) <- 0;
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      for i = off.(u) to off.(u + 1) - 1 do
        let v = adj.(i) in
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          Queue.add v q
        end
      done
    done;
    (dist, parent)

  (* Two-sweep BFS: exact on trees, a sharp lower-bound estimate on
     general graphs — which is the safe direction for everything we
     derive from it (hop limits and lifetimes get slack added). *)
  let two_sweep_diameter csr n root =
    let dist, _ = bfs csr n root in
    let far = ref root in
    Array.iteri (fun i d -> if d > dist.(!far) then far := i) dist;
    let dist2, _ = bfs csr n !far in
    Array.fold_left (fun m d -> if d > m then d else m) 0 dist2

  let tree_graph ~arity ~ntiers =
    let counts = Array.make ntiers 1 in
    for t = 1 to ntiers - 1 do
      counts.(t) <- counts.(t - 1) * arity
    done;
    let off = Array.make (ntiers + 1) 0 in
    for t = 0 to ntiers - 1 do
      off.(t + 1) <- off.(t) + counts.(t)
    done;
    let n = off.(ntiers) in
    let tier = Array.make n 0 in
    for t = 0 to ntiers - 1 do
      for i = off.(t) to off.(t + 1) - 1 do
        tier.(i) <- t
      done
    done;
    let edges = ref [] in
    for t = ntiers - 1 downto 1 do
      for i = counts.(t) - 1 downto 0 do
        let child = off.(t) + i in
        let parent = off.(t - 1) + (i / arity) in
        edges := (parent, child) :: !edges
      done
    done;
    let leaves = List.init counts.(ntiers - 1) (fun i -> off.(ntiers - 1) + i) in
    (n, !edges, tier, 0, leaves)

  (* Watts–Strogatz with a kept ring: the j = 1 ring edges are never
     rewired, so the graph stays connected for every seed and beta —
     a property the qcheck suite relies on.  Only the longer chords
     (j >= 2) rewire, each with probability beta, to a uniform
     non-duplicate target (bounded retries; the original chord is kept
     if 32 draws fail).  Edge count, and hence mean degree k, is
     invariant. *)
  let ws_graph ~n ~k ~beta ~seed =
    let rng = Sim.Rng.create seed in
    let tbl = Hashtbl.create (n * k) in
    let mem a b = Hashtbl.mem tbl (canonical (a, b)) in
    let add a b = Hashtbl.replace tbl (canonical (a, b)) () in
    let remove a b = Hashtbl.remove tbl (canonical (a, b)) in
    for i = 0 to n - 1 do
      for j = 1 to k / 2 do
        add i ((i + j) mod n)
      done
    done;
    for i = 0 to n - 1 do
      for j = 2 to k / 2 do
        let b = (i + j) mod n in
        if mem i b && Sim.Rng.bernoulli rng beta then begin
          let rec rewire attempts =
            if attempts > 0 then begin
              let c = Sim.Rng.int rng n in
              if c <> i && not (mem i c) then begin
                remove i b;
                add i c
              end
              else rewire (attempts - 1)
            end
          in
          rewire 32
        end
      done
    done;
    let edges =
      Hashtbl.fold (fun e () acc -> e :: acc) tbl []
      |> List.sort edge_compare
    in
    (n, edges, Array.make n 0, 0, List.init (n - 1) (fun i -> i + 1))

  (* Barabási–Albert by the repeated-endpoints trick: every edge pushes
     both endpoints into [ep], so a uniform draw from [ep] is a draw
     proportional to degree.  Seed graph is a clique on m+1 nodes;
     every arriving node is connected, so the graph is connected by
     construction. *)
  let ba_graph ~n ~m ~seed =
    let rng = Sim.Rng.create seed in
    let m0 = m + 1 in
    let total_edges = (m0 * (m0 - 1) / 2) + ((n - m0) * m) in
    let ep = Array.make (2 * total_edges) 0 in
    let ep_len = ref 0 in
    let edges = ref [] in
    let push_edge a b =
      edges := (a, b) :: !edges;
      ep.(!ep_len) <- a;
      ep.(!ep_len + 1) <- b;
      ep_len := !ep_len + 2
    in
    for a = 0 to m0 - 1 do
      for b = a + 1 to m0 - 1 do
        push_edge a b
      done
    done;
    let targets = Array.make m 0 in
    for v = m0 to n - 1 do
      let chosen = ref 0 in
      while !chosen < m do
        let t = ep.(Sim.Rng.int rng !ep_len) in
        let dup = ref false in
        for i = 0 to !chosen - 1 do
          if targets.(i) = t then dup := true
        done;
        if not !dup then begin
          targets.(!chosen) <- t;
          incr chosen
        end
      done;
      for i = 0 to m - 1 do
        push_edge targets.(i) v
      done
    done;
    let graph_edges = List.rev !edges in
    (* Root at the highest-degree hub (lowest id on ties) — for BA that
       is where a producer would peer. *)
    let deg = Array.make n 0 in
    List.iter
      (fun (a, b) ->
        deg.(a) <- deg.(a) + 1;
        deg.(b) <- deg.(b) + 1)
      graph_edges;
    let root = ref 0 in
    Array.iteri (fun i d -> if d > deg.(!root) then root := i) deg;
    let edge_routers =
      List.filter (fun i -> i <> !root) (List.init n (fun i -> i))
    in
    (n, graph_edges, Array.make n 0, !root, edge_routers)

  let graph_of (d : generate_decl) =
    let n, raw_edges, tier, root, edge_routers =
      match d.gen_model with
      | Gen_tree { arity; tiers } ->
        tree_graph ~arity ~ntiers:(List.length tiers)
      | Gen_ws { ws_n; ws_k; ws_beta; _ } ->
        ws_graph ~n:ws_n ~k:ws_k ~beta:ws_beta ~seed:d.gen_seed
      | Gen_ba { ba_n; ba_m; _ } -> ba_graph ~n:ba_n ~m:ba_m ~seed:d.gen_seed
    in
    let edges =
      List.map canonical raw_edges |> List.sort_uniq edge_compare
    in
    let csr = adjacency n edges in
    let dist, _ = bfs csr n root in
    Array.iter (fun d -> assert (d >= 0)) dist;
    let diameter = two_sweep_diameter csr n root in
    { node_count = n; edges; tier; root; edge_routers; diameter }

  let parents g =
    let csr = adjacency g.node_count g.edges in
    let _, parent = bfs csr g.node_count g.root in
    parent

  let node_label (d : generate_decl) g i =
    match d.gen_model with
    | Gen_tree _ -> Printf.sprintf "%s-t%d-n%d" d.gen_name g.tier.(i) i
    | Gen_ws _ | Gen_ba _ -> Printf.sprintf "%s-n%d" d.gen_name i

  let producer_label (d : generate_decl) = d.gen_name ^ "-P"

  let prefix (d : generate_decl) = Name.of_string ("/" ^ d.gen_name)

  (* One traversal can cross at most diameter routers plus the producer
     host and the consumer's own node; doubling leaves room for the
     lower-bound nature of the two-sweep estimate on non-trees. *)
  let hop_limit g = (2 * g.diameter) + 4

  let mean_link_latency (d : generate_decl) =
    match d.gen_model with
    | Gen_tree { tiers; _ } ->
      let sum =
        List.fold_left
          (fun acc t -> acc +. Sim.Latency.mean t.tier_latency)
          0. tiers
      in
      sum /. float_of_int (List.length tiers)
    | Gen_ws { ws_latency; _ } -> Sim.Latency.mean ws_latency
    | Gen_ba { ba_latency; _ } -> Sim.Latency.mean ba_latency

  (* PIT lifetime / default interest timeout, scaled so an interest
     survives a full round trip across the generated graph with a
     generous per-hop processing allowance and retransmission slack;
     never below the stack's 4 s default. *)
  let interest_lifetime_ms (d : generate_decl) g =
    let per_hop = mean_link_latency d +. 1. in
    let rtt = 2. *. float_of_int (g.diameter + 2) *. per_hop in
    Float.max 4000. (8. *. rtt)
end

(* --- building --- *)

type builder = {
  net : Network.t;
  (* Declarations in reverse order plus a name index: generated
     topologies declare tens of thousands of nodes, so membership and
     append must both be O(1), not the list scans a hand-written spec
     never noticed. *)
  mutable decls_rev : (string * Node.t) list;
  names : (string, Node.t) Hashtbl.t;
  (* (a, b) -> face id on a toward b *)
  faces : (string * string, int) Hashtbl.t;
}

let find_node b name =
  match Hashtbl.find_opt b.names name with
  | Some node -> Ok node
  | None ->
    Error
      (Printf.sprintf "undeclared node %S (node lines must come first)" name)

let declare_node b name node =
  b.decls_rev <- (name, node) :: b.decls_rev;
  Hashtbl.replace b.names name node

let build_node b (d : node_decl) =
  if Hashtbl.mem b.names d.node_name then
    Error (Printf.sprintf "duplicate node %S" d.node_name)
  else begin
    let node =
      Network.add_node b.net ~cs_capacity:d.cs_capacity ~cs_policy:d.cs_policy
        ~forwarding_delay:d.forwarding_delay ~honor_scope:d.honor_scope
        ~caching:d.caching d.node_name
    in
    declare_node b d.node_name node;
    Ok ()
  end

let build_link b (d : link_decl) =
  let* a = find_node b d.link_a in
  let* bn = find_node b d.link_b in
  if Hashtbl.mem b.faces (d.link_a, d.link_b) then
    Error (Printf.sprintf "duplicate link %s-%s" d.link_a d.link_b)
  else begin
    let fa, fb =
      Network.connect b.net ~loss:d.loss ?latency_ba:d.latency_back
        ~latency:d.latency a bn
    in
    Hashtbl.replace b.faces (d.link_a, d.link_b) fa;
    Hashtbl.replace b.faces (d.link_b, d.link_a) fb;
    Ok ()
  end

let build_route b (d : route_decl) =
  let* node = find_node b d.route_node in
  let* _ = find_node b d.route_via in
  match Hashtbl.find_opt b.faces (d.route_node, d.route_via) with
  | Some face ->
    Network.route b.net node ~prefix:(Name.of_string d.route_prefix) ~via:face;
    Ok ()
  | None ->
    Error
      (Printf.sprintf "route %s via %s: no such link (declare it with 'link')"
         d.route_node d.route_via)

let register_producer node (d : producer_decl) =
  Network.install_producer
    ~config:
      {
        producer_private = d.producer_private;
        strict_match = false;
        payload_size = d.payload_size;
        production_delay_ms = d.production_delay_ms;
      }
    ~prefix:(Name.of_string d.producer_prefix)
    ~key:d.producer_key node

let build_producer b (d : producer_decl) =
  let* node = find_node b d.producer_node in
  register_producer node d;
  Ok ()

(* Expand a [generate] directive into live nodes, links, and
   shortest-path routes toward a producer host attached at the graph
   root.  Everything is derived from the decl (via {!Gen}), so the
   directive prints canonically as the one line it came from while the
   network holds the full graph. *)
let build_generate b (d : generate_decl) =
  let g = Gen.graph_of d in
  let labels = Array.init g.node_count (fun i -> Gen.node_label d g i) in
  let plabel = Gen.producer_label d in
  let clash =
    if Hashtbl.mem b.names plabel then Some plabel
    else
      Array.fold_left
        (fun acc l -> if acc = None && Hashtbl.mem b.names l then Some l else acc)
        None labels
  in
  match clash with
  | Some l ->
    Error (Printf.sprintf "generate %s: node %S already declared" d.gen_name l)
  | None ->
    let lifetime = Gen.interest_lifetime_ms d g in
    let tier_arr =
      match d.gen_model with
      | Gen_tree { tiers; _ } -> Array.of_list tiers
      | Gen_ws { ws_cs; ws_latency; _ } ->
        [| { tier_cs = ws_cs; tier_latency = ws_latency } |]
      | Gen_ba { ba_cs; ba_latency; _ } ->
        [| { tier_cs = ba_cs; tier_latency = ba_latency } |]
    in
    let tier_of i = if g.tier.(i) < Array.length tier_arr then g.tier.(i) else 0 in
    for i = 0 to g.node_count - 1 do
      let spec = tier_arr.(tier_of i) in
      let node =
        Network.add_node b.net ~cs_capacity:spec.tier_cs
          ~cs_policy:d.gen_policy ~pit_lifetime_ms:lifetime labels.(i)
      in
      declare_node b labels.(i) node
    done;
    List.iter
      (fun (a, bb) ->
        (* A link takes the latency model of its deeper endpoint's tier
           (identical for ws/ba, where there is a single tier). *)
        let t = max (tier_of a) (tier_of bb) in
        let latency = tier_arr.(t).tier_latency in
        let na = Hashtbl.find b.names labels.(a) in
        let nb = Hashtbl.find b.names labels.(bb) in
        let fa, fb = Network.connect b.net ~latency na nb in
        Hashtbl.replace b.faces (labels.(a), labels.(bb)) fa;
        Hashtbl.replace b.faces (labels.(bb), labels.(a)) fb)
      g.edges;
    let pnode =
      Network.add_node b.net ~cs_capacity:0 ~pit_lifetime_ms:lifetime plabel
    in
    declare_node b plabel pnode;
    let root_node = Hashtbl.find b.names labels.(g.root) in
    let froot, fp =
      Network.connect b.net ~latency:tier_arr.(0).tier_latency root_node pnode
    in
    Hashtbl.replace b.faces (labels.(g.root), plabel) froot;
    Hashtbl.replace b.faces (plabel, labels.(g.root)) fp;
    let prefix = Gen.prefix d in
    let parent = Gen.parents g in
    for i = 0 to g.node_count - 1 do
      if i <> g.root then begin
        let face = Hashtbl.find b.faces (labels.(i), labels.(parent.(i))) in
        Network.route b.net (Hashtbl.find b.names labels.(i)) ~prefix ~via:face
      end
    done;
    Network.route b.net root_node ~prefix ~via:froot;
    register_producer pnode
      {
        producer_node = plabel;
        producer_prefix = "/" ^ d.gen_name;
        producer_key = plabel ^ "-key";
        payload_size = d.gen_payload;
        producer_private = false;
        production_delay_ms = 0.4;
      };
    Ok ()

(* Fault lines must follow the nodes/links they name — the same
   declaration-order rule as routes — so install errors stay local. *)
let build_fault b e = Network.install_faults b.net [ e ]

let build ?(seed = 42) ?tracer ?shards spec =
  let b =
    {
      net = Network.create ~seed ?tracer ?shards ();
      decls_rev = [];
      names = Hashtbl.create 64;
      faces = Hashtbl.create 16;
    }
  in
  let faults = ref [] in
  let rec go = function
    | [] ->
      Ok
        {
          network = b.net;
          nodes = List.rev b.decls_rev;
          faults = Sim.Fault.sort !faults;
        }
    | (lineno, d) :: rest -> (
      let result =
        match d with
        | Node_decl d -> build_node b d
        | Link_decl d -> build_link b d
        | Route_decl d -> build_route b d
        | Producer_decl d -> build_producer b d
        | Generate_decl d -> build_generate b d
        | Fault_decl e ->
          let* () = build_fault b e in
          faults := e :: !faults;
          Ok ()
      in
      match result with
      | Ok () -> go rest
      | Error reason -> Error (error_to_string { position = Line lineno; reason }))
  in
  go spec

let parse ?seed ?tracer text =
  let* spec = parse_spec text in
  build ?seed ?tracer spec

let parse_file ?seed ?tracer ~path () =
  let* text = read_file path in
  parse ?seed ?tracer text

let parse_latency s = parse_latency s
