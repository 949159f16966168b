(** [ndntype] — the typed (.cmt-based) analysis stage.

    Consumes the Typedtree saved by the ordinary dune build (bin_annot
    is on tree-wide), so it sees resolved [Path.t]s and inferred types:
    aliases, functor instantiations and re-exports cannot hide a
    violation from it the way they can from the syntactic [Ndnlint]
    pass.  Produces findings for the typed rules of the shared table —

    - {b R1} module-level mutable state (refs, arrays, Hashtbl/Buffer/
      Queue values, records with mutable fields) in a unit reachable
      from multi-domain execution, unless confined via [Domain.DLS];
    - {b A1} allocation sites (closures, tuples, records, arrays, lazy
      blocks, partial applications, [@@]/[|>]) inside functions marked
      [(* ndnlint: hot *)];
    - {b A2} polymorphism hazards in hot functions: generic structural
      comparison at non-scalar types, [Stdlib.min]/[max],
      [Hashtbl.hash];
    - {b G1} a [Sim.Rng.t] handle drawn from (or stored) after being
      passed to [Rng.split] in the same compilation unit;
    - {b U1} a value a [lib/] [.mli] declares (nested
      [module X : sig ... end] values included) that no other unit's
      [.cmt] references, wherever under [root] that unit lives —

    resolving pragmas and the allowlist with [Ndnlint]'s own machinery
    so suppression semantics are identical across both stages.
    DESIGN.md §15 documents each rule, the R1 reachability
    approximation, and the known false-negative envelope.

    The pass must run where sources and [.cmt] files share a root:
    [dune build @typedlint] runs it in [_build/default] (unsandboxed,
    after [@check]); the tests run it from [_build/default/test] with
    [root = ".."]. *)

type hot_fn = {
  hf_file : string;  (** Root-relative source path. *)
  hf_name : string;  (** Bound name of the hot function. *)
  hf_line : int;  (** Line of its [let]. *)
}

type report = {
  findings : Ndnlint.finding list;  (** Sorted like {!Ndnlint.lint_full}. *)
  scanned : string list;  (** Source files with an analyzable cmt. *)
  shared_units : string list;
      (** Compilation units in the R1 domain-shared closure. *)
  hot_functions : hot_fn list;
      (** Every [(* ndnlint: hot *)] binding found — the A1/A2 universe;
          tests pin this inventory so annotations cannot silently
          detach from the bindings they cover. *)
}

type config = {
  root : string;
      (** Directory holding {e both} the sources and the [.objs]/
          [.eobjs] directories with their cmts — i.e. [_build/default]
          (or ".." from [_build/default/test]). *)
  paths : string list;  (** Source prefixes to analyze. *)
  excludes : string list;  (** Source prefixes never analyzed. *)
  allowlist_file : string option;  (** Relative to [root]. *)
  lib_prefixes : string list;
      (** Prefixes where R1 and U1 apply (module-level mutable state
          and unreferenced exports are only policed in library code). *)
  spawn_units : string list;
      (** Compilation units that place work on domains; seeds of the R1
          reachability closure. *)
}

val default_spawn_units : string list
(** [["Sim__Engine"; "Sim__Shard"; "Sim__Parallel"]]. *)

val config :
  ?paths:string list ->
  ?excludes:string list ->
  ?allowlist_file:string ->
  ?lib_prefixes:string list ->
  ?spawn_units:string list ->
  root:string ->
  unit ->
  config
(** Defaults: [paths = ["lib"; "bin"; "bench"; "test"; "tools"]],
    [excludes = ["test/lint_fixtures"; "test/typedlint_fixtures"]],
    [lib_prefixes = ["lib/"]], [spawn_units = default_spawn_units],
    no allowlist. *)

val run : config -> (report, string) result
(** Analyze every source file that has a cmt under [root], and every
    interface under [lib_prefixes] that has a cmti (U1).  U1 counts a
    reference from any unit under [root] outside [excludes].  [Error]
    covers configuration problems: an unreadable or malformed
    allowlist, or no cmt files at all (the build hasn't run).  A file
    whose cmt lacks a full implementation (packs, partial saves) is
    skipped, not an error. *)
