(** A name index with prefix queries, keyed by {!Name.t}.

    Shared index structure behind the FIB (longest-prefix match of an
    interest name against routed prefixes), the content store's prefix
    index (does any cached name extend this interest name?) and a
    node's local-application registrations.  The exact-name index of
    the content store and the PIT is {!Name_index}.

    Representation and costs:
    - Bindings live in a {!Name.Tbl} hash table.  Names are hash-consed
      with a memoized hash, so {!add}, {!remove}, {!find}, {!mem} and
      {!size} each cost one table operation, and {!find} allocates
      nothing.  The table is created with the first binding, so an
      index that stays empty costs one small record.
    - A census counts the bound names per length.  {!fold_prefixes}
      probes the table once per length the census holds, up to the
      query's length; a probe below the query's own length builds that
      prefix with {!Name.prefix}.
    - {!first_extension} and {!fold_subtree} answer with one probe when
      no bound name is longer than the query.  Otherwise they walk a
      component-ordered tree, built from the table on the first such
      query and maintained by {!add}/{!remove} until {!clear}.
    - {!longest_prefix} and {!longest_prefix_value} walk the same tree
      down the query's components, no deeper than the longest bound
      length.  Only {!longest_prefix} builds a name: its answer's.
    - {!to_list} sorts the table, O(n log n). *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int
(** Number of bound names. *)

val is_empty : 'a t -> bool

val add : 'a t -> Name.t -> 'a -> unit
(** Bind a value to a name, replacing any previous binding. *)

val remove : 'a t -> Name.t -> unit
(** Unbind (pruning the ordered tree's empty branches, if it is built).
    No-op if unbound. *)

val find : 'a t -> Name.t -> 'a option
(** Exact-name lookup. *)

val mem : 'a t -> Name.t -> bool

val longest_prefix : 'a t -> Name.t -> (Name.t * 'a) option
(** The bound name that is the longest prefix of the query. *)

val longest_prefix_value : 'a t -> Name.t -> 'a option
(** The value of {!longest_prefix}, without the matched name: the FIB's
    query.  It builds or interns no prefix name and allocates
    nothing (the ordered tree is built on first use, as for
    {!first_extension}). *)

val fold_prefixes : 'a t -> Name.t -> init:'acc -> f:('acc -> Name.t -> 'a -> 'acc) -> 'acc
(** Fold over every bound name that is a prefix of the query, shortest
    first (used to hand an arriving Data packet to every local
    application registered under a prefix of its name). *)

val first_extension : 'a t -> Name.t -> (Name.t * 'a) option
(** The smallest (in {!Name.compare} order) bound name of which the
    query is a prefix — NDN content-store matching, where an interest
    for [/a/b] can be satisfied by cached [/a/b/c]. *)

val fold_subtree : 'a t -> Name.t -> init:'acc -> f:('acc -> Name.t -> 'a -> 'acc) -> 'acc
(** Fold over all bound names extending the query (including the query
    itself if bound), in {!Name.compare} order. *)

val to_list : 'a t -> (Name.t * 'a) list
(** All bindings in name order. *)

val clear : 'a t -> unit
(** Drop every binding and the ordered tree. *)
