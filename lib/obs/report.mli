(** Rendering a JSONL span trace into a per-phase summary.

    Reads the lines written by {!Tracer.write_jsonl}, rebuilds the span
    forest, and aggregates per span name: invocation count, total
    (inclusive) time, self time (total minus the children's totals), and
    min/max durations. This is the engine behind [loopt report]. *)

type row = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  min_s : float;
  max_s : float;
}

val aggregate : (string * float * float) list -> row list
(** Rows from [(name, duration, children's summed duration)] span
    observations, summed in the order given, sorted by total time
    descending (name ascending on ties). Self time is clamped at [0] per
    span. {!of_lines} and {!Profile} both aggregate through it. *)

val of_lines : string list -> (row list, string) result
(** Aggregate parsed spans per name, sorted by total time descending.
    Blank lines are skipped; a malformed line is an error naming its
    (1-based) position. *)

val counters : string list -> ((string * int) list, string) result
(** Sum every integer attribute across spans, keyed
    ["span-name.attr-name"] and sorted — the trace-derived counter view
    (boolean/string/float attributes are ignored). *)

val pp : Format.formatter -> row list -> unit
(** Fixed-width table. *)

val pp_metrics_file : Format.formatter -> Json.t -> unit
(** Render a {!Metrics.dump} document as a [name{labels} value] table.
    Histograms print count, sum, mean and the p50/p90/p99 quantiles
    (computed from the dumped bucket counts with
    {!Metrics.quantile_of_counts}); dumps predating the ["sum"] field
    render ["-"] for sum and mean but still get quantiles, which need
    only the counts. *)
