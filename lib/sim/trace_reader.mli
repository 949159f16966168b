(** Streaming trace decoders: fold over a trace file event by event
    without ever materializing the trace.

    Two formats are understood — the binary wire format written by
    {!Trace.render}[ Binary] (DESIGN §16) and the JSONL rendering —
    plus a sniffing entry point that picks the right decoder from the
    stream prefix.  Heavy-traffic traces (10⁸–10⁹ events at item-1/2
    scale) are read in 64 KiB windows; memory stays proportional to
    the string table, never to the event count.

    {b Error discipline.}  Malformed input never raises: every decoder
    returns a positioned {!Scan.error} (DESIGN §17) — byte offsets for
    binary streams (framing violations, truncated tails, bad varints,
    out-of-range string references), line and column for JSONL. *)

(** {1 Byte sources} *)

type source
(** A chunked byte stream: an in-memory string or a channel read in
    64 KiB windows.  Sources are single-shot — a fold consumes one. *)

val of_string : string -> source

val of_channel : in_channel -> source

(** {1 Folds} *)

val fold_binary :
  source -> init:'a -> f:('a -> Trace.event -> 'a) -> ('a, Scan.error) result
(** Validate the header (magic, version, registry snapshot) and fold
    [f] over every event record in stream order.  Framing is fully
    checked: record lengths, string-table discipline, payload bounds,
    and end-of-stream landing exactly on a record boundary. *)

val fold_jsonl :
  source -> init:'a -> f:('a -> Trace.event -> 'a) -> ('a, Scan.error) result
(** Fold over a JSONL trace (the exporter's own schema:
    time/node/kind/name/attrs per line; blank lines tolerated). *)

type detected = Binary | Jsonl

val detect : source -> detected
(** Sniff the stream prefix without consuming it: the binary magic,
    else JSONL. *)

val fold_auto :
  source -> init:'a -> f:('a -> Trace.event -> 'a) -> ('a, Scan.error) result
(** {!detect}, then dispatch to the matching fold.  Anything that is
    not a binary stream is read as JSONL, so other text fails with a
    positioned JSONL error. *)
