(** Text format for describing experiment topologies.

    Lets studies beyond the paper's built-in setups be defined in a
    file instead of OCaml:

    {v
    # nodes first; attributes are optional
    node R  cs=10000 policy=lru proc=normal:0.55:0.12:0.15
    node U  caching=false
    node P

    # bidirectional links
    link U R latency=normal:0.25:0.06:0.05
    link R P latency=const:1.8 loss=0.01

    # interest routing (via a directly linked neighbour)
    route U /prod via R
    route R /prod via P

    # a producer application serving a namespace
    producer P /prod key=pkey payload=1024 private=false delay=0.4

    # optional fault injection (see {!Sim.Fault}): TIME KIND ARGS
    fault 500 crash R preserve_cs=false
    fault 700 restart R
    fault 900 degrade R P loss=0.2 latency_factor=3 until=1500
    v}

    Latency grammar: [const:MS], [uniform:LO:HI],
    [normal:MEAN:SD:MIN], [shifted_exp:SHIFT:RATE], or a [+]-joined sum
    of those.  All latency parameters must be non-negative
    ([shifted_exp] rate strictly positive, [uniform] hi ≥ lo) and link
    [loss] must lie in [\[0,1\]]; violations are parse errors carrying
    the line number.

    Parsing is two-phase: {!parse_spec} reads the text into an AST of
    directives (defaults resolved), {!build} turns directives into a
    live network.  {!print} renders a spec canonically, and
    [parse_spec (print s)] yields [s]'s directives again — the
    round-trip is a fixpoint, which keeps generated topologies
    diffable and machine-editable. *)

type t = {
  network : Network.t;
  nodes : (string * Node.t) list;  (** Declaration order. *)
  faults : Sim.Fault.schedule;
      (** The spec's [fault] directives, sorted by firing time.  They
          are already installed on the network by {!build}; exposed so
          callers can segment measurements with
          {!Sim.Fault.phase_boundaries}. *)
}

val node : t -> string -> Node.t
(** @raise Not_found for undeclared names. *)

(** {1 The directive AST} *)

type node_decl = {
  node_name : string;
  cs_capacity : int;  (** [0] = unbounded. *)
  cs_policy : Eviction.t;
  forwarding_delay : Sim.Latency.t;
  honor_scope : bool;
  caching : bool;
}

type link_decl = {
  link_a : string;
  link_b : string;
  latency : Sim.Latency.t;  (** a→b model. *)
  latency_back : Sim.Latency.t option;  (** b→a; defaults to [latency]. *)
  loss : float;
}

type route_decl = {
  route_node : string;
  route_prefix : string;
  route_via : string;  (** Must name a linked neighbour. *)
}

type producer_decl = {
  producer_node : string;
  producer_prefix : string;
  producer_key : string;  (** Defaults to ["NODE-key"]. *)
  payload_size : int;
  producer_private : bool;
  production_delay_ms : float;
}

(** {2 Generated topologies}

    A [generate] directive expands at build time into an entire router
    graph — nodes, links, shortest-path routes toward a producer host
    attached at the graph root — drawn by a seeded deterministic
    generator.  Three models:

    {v
    # ISP hierarchy: tiers core→access; per-tier lists are ','-joined
    generate tree name=isp arity=10 tiers=5 cs=100000,10000,1000,1000,500 latency=const:8,const:4,const:2,const:1,const:1
    # Watts–Strogatz small world (k even; the ring backbone is kept, so
    # the graph is connected for every seed and beta)
    generate ws name=sw n=200 k=6 beta=0.2 cs=2048 latency=const:2
    # Barabási–Albert preferential attachment (m edges per new node)
    generate ba name=pa n=200 m=3 cs=2048 latency=const:2
    v}

    Common attributes: [name] (required; node-label prefix, namespace
    [/NAME]), [seed] (default 42), [policy] (default lru), [payload]
    (default 1024).  Single-value [cs]/[latency] on [tree] replicate
    across tiers; [tiers] defaults to the longer of the two lists (or
    3).  Identical directives produce identical graphs; the canonical
    print is the directive itself, one line however large the graph. *)

type tier_spec = { tier_cs : int; tier_latency : Sim.Latency.t }

type gen_model =
  | Gen_tree of { arity : int; tiers : tier_spec list }
      (** Tier 0 is the core root; tier [t] has [arity^t] routers, each
          linked to one parent in tier [t-1] with tier [t]'s latency. *)
  | Gen_ws of {
      ws_n : int;
      ws_k : int;
      ws_beta : float;
      ws_cs : int;
      ws_latency : Sim.Latency.t;
    }
  | Gen_ba of {
      ba_n : int;
      ba_m : int;
      ba_cs : int;
      ba_latency : Sim.Latency.t;
    }

type generate_decl = {
  gen_name : string;
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
      (** A fault to install at build time; must name nodes/links
          declared on earlier lines. *)

type spec = (int * directive) list
(** Directives paired with their 1-based source line numbers, in file
    order — {!build} reuses the numbers in semantic error messages. *)

val directives : spec -> directive list
(** The directives without line numbers. *)

val parse_spec : string -> (spec, string) result
(** Read a specification text into directives.  Errors carry the line
    number and say what the directive expected (missing node name,
    unknown attribute, malformed latency, …). *)

val print : spec -> string
(** Canonical rendering: one directive per line, every attribute
    explicit, floats printed with just enough digits to re-parse to the
    identical value.  [parse_spec (print s) = Ok s] up to line
    numbers. *)

val build :
  ?seed:int -> ?tracer:Sim.Trace.t -> ?shards:int -> spec -> (t, string) result
(** Instantiate the network ([seed] defaults to 42; [tracer] — default
    {!Sim.Trace.disabled} — is threaded to the engine, every node and
    every link; [shards] is forwarded to {!Network.create}).  Semantic errors (duplicate node,
    undeclared endpoint, route without a link) carry the offending
    directive's line number. *)

val parse : ?seed:int -> ?tracer:Sim.Trace.t -> string -> (t, string) result
(** [parse_spec] followed by [build]. *)

val parse_file :
  ?seed:int -> ?tracer:Sim.Trace.t -> path:string -> unit -> (t, string) result
(** {!parse} of the file's text; [Error] with the [Sys_error] message
    when it cannot be read. *)

val parse_latency : string -> (Sim.Latency.t, string) result
(** The latency sub-grammar, exposed for reuse and tests. *)

(** {1 The generated graphs themselves}

    The pure graph layer behind [generate] directives, exposed so tests
    can check structural invariants and benches can address generated
    nodes without re-deriving the labelling. *)
module Gen : sig
  type graph = {
    node_count : int;
    edges : (int * int) list;
        (** Canonical: [a < b], sorted lexicographically, no duplicates
            or self-loops. *)
    tier : int array;  (** Per node; all [0] for ws/ba. *)
    root : int;  (** Where the producer host attaches. *)
    edge_routers : int list;
        (** Consumer attachment points, ascending: the leaf tier of a
            tree, every non-root node of ws/ba. *)
    diameter : int;
        (** Two-sweep BFS estimate — exact on trees, a lower bound in
            general (consumers of this field add slack). *)
  }

  val graph_of : generate_decl -> graph
  (** Deterministic: equal decls (same seed included) yield structurally
      equal graphs.  Always connected, by construction, for all three
      models. *)

  val parents : graph -> int array
  (** BFS parent toward [root] ([-1] at the root); the tree along which
      [build] installs routes. *)

  val node_label : generate_decl -> graph -> int -> string
  (** ["NAME-tT-nI"] for trees (tier [T], id [I]), ["NAME-nI"]
      otherwise — the labels [build] registers with {!Network}. *)

  val producer_label : generate_decl -> string
  (** ["NAME-P"], the producer host linked to the root. *)

  val prefix : generate_decl -> Name.t
  (** [/NAME], the namespace the generated producer serves. *)

  val hop_limit : graph -> int
  (** A scope bound ample for any probe across the graph:
      [2 * diameter + 4]. *)

  val interest_lifetime_ms : generate_decl -> graph -> float
  (** The PIT lifetime [build] gives every generated node: at least the
      stack's 4000 ms default, scaled up with diameter and mean link
      latency so interests survive a full round trip in deep graphs. *)
end
