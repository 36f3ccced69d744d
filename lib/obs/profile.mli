(** Folding a span tree into a flamegraph table.

    A profile aggregates spans {e per name}: how many times the span ran,
    its total (inclusive) time, and its {b self time} — total minus the
    time spent in child spans, i.e. the time genuinely attributable to
    that span's own code. Rows sort by self time descending, so the top
    of the table is where the wall clock actually went — the textual
    equivalent of the widest frames of a flamegraph.

    Two entry points cover both ends of the pipeline: {!of_spans} folds a
    live {!Tracer} forest (used by [loopt serve] to profile each request
    in memory, no serialization round-trip), and {!of_lines} folds a
    JSONL trace written by {!Tracer.write_jsonl} (used by
    [loopt report --profile]). The two agree on the same tree. *)

type row = Report.row = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  min_s : float;
  max_s : float;
}
(** {!Report}'s row; a profile sorts the rows by self time. *)

val of_spans : Tracer.span list -> row list
(** Aggregate a completed span forest per name, sorted by self time
    descending (name ascending on ties). Self time is clamped at [0] per
    span, as in {!Report}. *)

val of_lines : string list -> (row list, string) result
(** The same aggregation from a JSONL trace; shares {!Report}'s parser,
    so malformed lines produce the same positioned errors. *)

val top : int -> row list -> row list
(** The first [n] rows (the list is already sorted by self time). *)

val to_json : row list -> Json.t
(** Rows as a JSON array of
    [{"name", "count", "total_us", "self_us"}] objects — the shape
    embedded in serve's slow-log records. *)

val pp : Format.formatter -> row list -> unit
(** Fixed-width table with a [self%] column (share of the summed self
    time). *)
