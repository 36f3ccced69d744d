(** A registry of named counters, gauges and histograms.

    Instruments are identified by a name plus an optional label set
    (["legality.rejections" {reason=bound-type}]). Handles are
    find-or-create: asking twice for the same (name, labels) returns the
    same instrument, so independently-constructed components accumulate
    into shared totals.

    {b Multicore}: instrument {e updates} are atomic and commutative
    (counter adds, histogram bucket increments, the fixed-point histogram
    sum), so totals are deterministic regardless of domain scheduling.
    Looking a handle up takes no lock: it reads an immutable snapshot of
    the registry. Only {e creating} an instrument takes the registry
    lock, which publishes a new snapshot; both are safe from any domain.
    A hot path still resolves its handles once and keeps them.
    Gauge {!set} is last-write-wins (absolute values should come from one
    writer at a time); {!gauge_add} is a CAS loop, safe for concurrent
    +/- level tracking from any domain.

    {b Determinism}: a histogram stores integer bucket counts plus an
    integer fixed-point sum (thousandths of a unit) — never a float
    accumulator — precisely so that parallel and sequential runs of the
    same work dump identical registries: integer addition commutes, float
    accumulation order does not. Quantiles ({!quantile}) are likewise a
    pure function of the bucket counts. *)

type t

val create : unit -> t

type counter
type gauge
type histogram

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Find or create: asking for a counter registers it, so it is listed
    by {!write} from then on, at 0 if nothing adds to it. *)

val read_counter : t -> ?labels:(string * string) list -> string -> int
(** The counter's value, or 0 when the registry holds no such counter:
    a read that registers nothing, for reporting a counter some other
    component may or may not have created.
    @raise Invalid_argument if the name is another kind of instrument. *)

val gauge : t -> ?labels:(string * string) list -> string -> gauge

val duration_buckets : float array
(** Duration buckets in {e microseconds}, 1us to 100s, in a 1-2-5
    log-linear series ([1; 2; 5; 10; 20; ...]; three buckets per decade
    keep quantile interpolation error within ~2.5x anywhere on the
    range). The shared layout for every duration histogram. *)

val histogram :
  t -> ?labels:(string * string) list -> ?buckets:float array -> string -> histogram
(** [buckets] are upper bounds of the counting buckets, sorted ascending;
    an implicit overflow bucket is added. Default:
    [1, 10, 100, 1e3, ..., 1e9]. Re-opening an existing histogram ignores
    [buckets].
    @raise Invalid_argument if the (name, labels) pair already names an
    instrument of another kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val gauge_add : gauge -> float -> unit
(** [gauge_add g by] atomically adds [by] (a CAS loop, so concurrent adds
    from different domains all land — unlike {!set}, which is
    last-write-wins). Use for level gauges maintained by +1/-1 updates,
    e.g. [serve.queue.depth] and [serve.workers.busy]. *)

val observe : histogram -> float -> unit
(** Increment the first bucket whose upper bound is [>= x] (the overflow
    bucket if none) and add [x] — rounded to a thousandth — to the
    fixed-point sum. *)

val histogram_count : histogram -> int
(** Total number of observations (the sum of all bucket counts). *)

val histogram_sum : histogram -> float
(** Sum of observed values, at 1/1000 resolution per observation. *)

val quantile : histogram -> float -> float option
(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1], clamped)
    from the bucket counts: linear interpolation inside the bucket holding
    the target rank (lower edge [0] for the first bucket); a rank landing
    in the overflow bucket saturates at the last finite bound. [None] on
    an empty histogram. Monotone in [q], and deterministic — two runs
    making the same observations report identical quantiles. *)

val quantile_of_counts :
  buckets:float array -> counts:int array -> float -> float option
(** The same estimator as a pure function of a bucket layout and count
    array ([counts] carries the trailing overflow slot) — for consumers
    reading a metrics file ({!write}) rather than a live registry. *)

(** {1 Metrics files} *)

type sink
(** A [--metrics-out] file. *)

val sink : string -> sink
(** Creates (truncates) the file; raises [Sys_error] naming the path
    when it cannot. *)

val write : sink -> t -> unit
(** Replaces the file with the registry's dump, one JSON document and a
    newline, deterministic (sorted by name, then labels):
    [{"schema": 1, "metrics": [{"name", "labels", "type", ...}, ...]}].
    Histogram entries carry ["buckets"], ["counts"], ["count"] and
    ["sum"]. A write error is reported on stderr, once: the sink writes
    nothing after it, and never raises. *)

val dump_prometheus : t -> string
(** The registry in the Prometheus text exposition format: one
    [# TYPE name kind] comment per metric name, [name{labels} value]
    sample lines, and for histograms the conventional cumulative
    [name_bucket{...,le="bound"}] series ending at [le="+Inf"] plus
    [name_sum]/[name_count]. Metric and label names are sanitized to
    [[a-zA-Z0-9_:]] (so ["serve.requests"] exposes as
    [serve_requests]); label values are escaped. Sorted and
    deterministic like {!write}'s dump. *)
