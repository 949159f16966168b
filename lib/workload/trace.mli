(** Request traces: the replay input of the paper's Section VII.

    A trace is a time-ordered sequence of (timestamp, user, content)
    request records.  Contents are dense integer ids; {!name_of} maps
    them to NDN names for components that need them.

    A trace is stored as three columns of equal length, one slot per
    request: [times] (a flat, unboxed [float array]), [users] and
    [contents].  That is 3 words per request; an array of {!record}s
    takes 7, because OCaml boxes the float field of a mixed record.
    The columns are readable for hot loops ({!Replay} indexes them
    directly, so reading a timestamp allocates nothing) and must not
    be written.  {!get} and {!iter} build a {!record} per call. *)

type record = { time_s : float; user : int; content : int }

type t = private { times : float array; users : int array; contents : int array }

val create : record array -> t
(** Copies the records into columns.
    @raise Invalid_argument if timestamps are not non-decreasing. *)

val of_columns : times:float array -> users:int array -> contents:int array -> t
(** Takes ownership of the three columns.
    @raise Invalid_argument if their lengths differ or timestamps are
    not non-decreasing. *)

val length : t -> int

val get : t -> int -> record

val iter : t -> f:(record -> unit) -> unit

val duration_s : t -> float
(** Last timestamp minus first ([0.] for traces shorter than 2). *)

val users : t -> int
(** Number of distinct users. *)

val distinct_contents : t -> int

val name_of : int -> Ndn.Name.t
(** ["/trace/c<id>"] — stable mapping from content ids to names. *)

val sub : t -> pos:int -> len:int -> t
(** A view-copy of a slice (timestamps keep their values).
    @raise Invalid_argument on out-of-bounds. *)

val save : t -> path:string -> unit
(** Text format, one ["time user content"] line per record. *)

val parse : string -> (t, string) result
(** Read the {!save} format: blank lines and ['#'] comments are
    skipped, times must be finite and non-decreasing.  Errors carry
    the line: ["line N: ..."]. *)

val load : path:string -> (t, string) result
(** {!parse} of the file's text; [Error] naming the file when it
    cannot be read (see {!Sim.Scan.read_file}). *)

val pp_summary : Format.formatter -> t -> unit
