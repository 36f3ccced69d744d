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
val gauge : t -> ?labels:(string * string) list -> string -> gauge

val log_linear : lo:float -> hi:float -> float array
(** A 1-2-5 log-linear bucket series: [lo, 2lo, 5lo, 10lo, 20lo, ...] up
    to the first bound [>= hi]. Three buckets per decade keeps quantile
    interpolation error within ~2.5x anywhere on the range.
    @raise Invalid_argument unless [0 < lo < hi]. *)

val duration_buckets : float array
(** [log_linear ~lo:1. ~hi:1e8] — duration buckets in {e microseconds},
    1us to 100s. The shared layout for every duration histogram, so
    registries merge without bucket mismatches. *)

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
    reading a serialized {!dump} rather than a live registry. *)

val merge_into : into:t -> t -> unit
(** Fold a registry into another: counters, histogram buckets and
    histogram sums add, gauges overwrite.
    @raise Invalid_argument on a histogram bucket-layout mismatch; the
    message names the metric and both bucket arrays. *)

val dump : t -> Json.t
(** Deterministic (sorted by name, then labels) machine-readable dump:
    [{"schema": 1, "metrics": [{"name", "labels", "type", ...}, ...]}].
    Histogram entries carry ["buckets"], ["counts"], ["count"] and
    ["sum"]. *)

val dump_prometheus : t -> string
(** The registry in the Prometheus text exposition format: one
    [# TYPE name kind] comment per metric name, [name{labels} value]
    sample lines, and for histograms the conventional cumulative
    [name_bucket{...,le="bound"}] series ending at [le="+Inf"] plus
    [name_sum]/[name_count]. Metric and label names are sanitized to
    [[a-zA-Z0-9_:]] (so ["serve.requests"] exposes as
    [serve_requests]); label values are escaped. Sorted and
    deterministic like {!dump}. *)
