(** Parser for Squid proxy access logs — the native format of the
    IRCache/NLANR traces the paper replays.

    IRCache distributed sanitized Squid logs; if you hold such a file
    (or any Squid `access.log`), this module turns it into a
    {!Trace.t} replayable through the Figure 5 pipeline, assigning
    dense user ids to client addresses and dense content ids to URLs.

    Recognized line shape (fields beyond the URL are ignored):

    {v timestamp elapsed client action/code size method URL ... v}

    e.g.
    {v 1188936012.445  110 891a2f TCP_MISS/200 4528 GET http://example.org/x - DIRECT/10.1.2.3 text/html v} *)

type parse_stats = {
  parsed : int;
  skipped : int;  (** Malformed or non-request lines. *)
}

val parse_line : string -> (float * string * string) option
(** [(timestamp_s, client, url)] from one log line; [None] when the
    line is unusable. *)

val of_lines : string list -> Trace.t * parse_stats
(** Build a trace from log lines: timestamps are shifted to start at 0
    and the records sorted (Squid logs are written at request
    completion, so they can be slightly out of order). *)
