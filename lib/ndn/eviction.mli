(** Cache replacement policies for the content store.

    The paper's evaluation uses LRU ("a router caches all content and
    removes elements from its cache according to the LRU policy",
    Section VII); the others are provided for ablation benchmarks. *)

type t =
  | Lru  (** Evict the least recently used entry. *)
  | Fifo  (** Evict the oldest entry regardless of use. *)
  | Lfu  (** Evict the least frequently used entry (ties: oldest). *)
  | Random_replacement  (** Evict a uniformly random entry. *)

val to_string : t -> string

val of_string : string -> t option
(** Parses ["lru"], ["fifo"], ["lfu"], ["random"] (case-insensitive). *)

val all : t list
