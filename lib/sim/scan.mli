(** One scanner for every parser (DESIGN §17).

    Every reader of outside bytes — wire packets, binary and JSONL
    traces, the bench ledger, topology specs, fault schedules and
    request traces — reports a malformed input through the one
    positioned {!error} below and never lets another exception escape.
    Stream decoders return the record; line-oriented text parsers
    return it rendered by {!error_to_string}, so their [string] errors
    read the same ["line N: ..."] everywhere. *)

(** {1 Positioned errors} *)

type position =
  | Byte of int  (** Byte offset into a binary input. *)
  | Line of int  (** 1-based line of a text input. *)
  | Column of int * int  (** 1-based line and column of a JSON text. *)

type error = { position : position; reason : string }

exception Fail of error
(** Raised inside a decoder; {!protect} turns it into [Error]. *)

val fail : position -> string -> 'a

val failf : position -> ('a, unit, string, 'b) format4 -> 'a

val protect : (unit -> 'a) -> ('a, error) result
(** [f ()], with a {!Fail} from it returned as [Error]. *)

val error_to_string : error -> string
(** ["byte N: reason"], ["line N: reason"] or ["line N, column C:
    reason"]. *)

(** {1 Directive text}

    One directive per line, whitespace-separated tokens, ['#'] comments
    and blank lines skipped: the shape of topology specs, fault
    schedules and saved request traces. *)

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

val tokens : string -> string list
(** The non-empty runs between spaces, tabs and carriage returns. *)

val fold_lines :
  string ->
  init:'a ->
  f:('a -> line:int -> string list -> ('a, string) result) ->
  ('a, string) result
(** Fold [f] over the tokens of every line that is neither blank nor a
    comment (first token starting with ['#']), in order.  An [Error]
    from [f] stops the fold and comes back prefixed ["line N: "]. *)

val read_file : string -> (string, string) result
(** The whole file, or the [Sys_error] message naming [path] once:
    ["PATH: No such file or directory"]. *)

val float_field : string -> string -> (float, string) result
(** [float_field name s]: [Error "name: expected a number, got \"s\""]
    when [s] does not parse. *)

val int_field : string -> string -> (int, string) result

val bool_field : string -> string -> (bool, string) result
(** [true]/[yes]/[1] and [false]/[no]/[0], in any case. *)

val checked_field : string -> (string -> 'a) -> string -> ('a, string) result
(** [checked_field name f s] is [f s], with an [Invalid_argument m]
    from the constructor [f] returned as [Error "name: m"]. *)

val parse_attrs :
  directive:string ->
  allowed:string list ->
  string list ->
  ((string * string) list, string) result
(** [key=value] tokens checked against the directive's [allowed] keys,
    so a mistyped key is an error rather than silently ignored. *)

val attr : (string * string) list -> string -> string option

val attr_field :
  (string * string) list ->
  string ->
  default:'a ->
  (string -> string -> ('a, string) result) ->
  ('a, string) result
(** [attr_field attrs key ~default field] is [field key v] for the
    attribute's value [v], or [Ok default] when it is absent. *)

val is_attr : string -> bool
(** The token contains ['=']. *)

val float_str : float -> string
(** The shortest of [%.12g] and [%.17g] that parses back to the same
    float: the canonical float of every printer whose output re-parses. *)

(** {1 JSON} *)

module Json : sig
  val escape_into : Buffer.t -> string -> unit
  (** The body of a JSON string literal for the given bytes: ['"'],
      ['\\'], newline, carriage return and tab as two-character
      escapes, other control bytes as [\u00XX]. *)

  type lexer
  (** A cursor over one JSON text.  Every function raises {!Fail}
      positioned by the lexer's [where]. *)

  val lexer : ws:bool -> where:(int -> position) -> string -> lexer
  (** [where i] positions an error at byte index [i] (at most one past
      the end).  With [ws] the lexer skips spaces, tabs, CR and LF
      before every token; without it any whitespace is an error. *)

  val pos : lexer -> int
  (** Byte index of the next unread byte. *)

  val at : lexer -> int -> position

  val peek : lexer -> char option
  (** The next byte, [None] at the end; consumes nothing. *)

  val expect : lexer -> char -> unit
  (** Consume exactly this byte, else fail ["expected 'c'"]. *)

  val string : lexer -> raw:bool -> string
  (** A string literal.  [~raw:true] returns its bytes as written and
      only finds where it ends (a backslash skips the byte after it);
      [~raw:false] decodes the escapes the trace exporter writes (quote,
      backslash, slash, [n], [r], [t], [b] and [u00XX]) and rejects
      every other. *)

  val span : lexer -> (char -> bool) -> string
  (** The longest run of bytes satisfying the predicate (possibly
      empty): a number or literal, checked by the caller. *)

  val sequence : lexer -> close:char -> (unit -> unit) -> unit
  (** After an opening bracket: zero or more items, each read by the
      callback, separated by [','] and ended by [close]. *)
end
