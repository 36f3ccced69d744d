(** Span-based structured tracing.

    [span t name f] runs [f] inside a named span; spans nest into a tree
    mirroring the dynamic call structure (search step, candidate legality
    check, objective simulation, ...). Three properties drive the design:

    - {b zero cost when off}: the {!null} tracer makes [span] a direct
      call of [f] — no clock read, no allocation. Attributes are passed as
      a thunk so building them is also skipped when disabled.
    - {b deterministic parallel trees}: a worker must never append to a
      shared buffer in scheduling order. The coordinator {!fork}s one
      child tracer per unit of work, each worker records into its own
      child without contention, and {!join} splices the children back in
      {e input} order — so a parallel run produces the same span tree as a
      sequential one (timings aside; {!equal_shape} compares modulo
      timing).
    - {b pluggable sinks}: spans accumulate in memory; a completed forest
      ({!roots}) is then kept for inspection (tests), or serialized as
      JSON-lines with {!write_jsonl} (parent lines precede children,
      deterministic depth-first ids).

    The {b ambient} tracer is a domain-local handle letting deep callees
    (e.g. {!Itf_machine.Memsim} inside an objective function) attach spans
    to whatever span their caller has open, without every intermediate
    signature threading a tracer. It defaults to {!null}. *)

type value = Bool of bool | Int of int | Float of float | String of string

type span = {
  name : string;
  attrs : (string * value) list;
  start_s : float;  (** clock value at entry *)
  dur_s : float;
  children : span list;  (** completed sub-spans, in execution order *)
}

type t

val null : t
(** The disabled tracer: [span null name f = f ()]. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A live in-memory tracer. [clock] defaults to [Unix.gettimeofday];
    tests may inject a deterministic clock. *)

val enabled : t -> bool

val span : t -> ?attrs:(unit -> (string * value) list) -> string -> (unit -> 'a) -> 'a
(** Run the function inside a new span (child of the innermost open span).
    The span is closed even if the function raises. [attrs] is evaluated
    only when the tracer is enabled. *)

val add_attrs : t -> (string * value) list -> unit
(** Append attributes to the innermost open span — for values only known
    mid-span (e.g. a result count). No-op when disabled or no span is
    open. *)

val fork : t -> t
(** An empty child tracer sharing the parent's clock (or {!null} for a
    disabled parent). Fill it on any domain, then {!join} it back. *)

val join : t -> t list -> unit
(** Splice each forked child's completed top-level spans, in list order,
    as children of the parent's innermost open span (or as roots). *)

val roots : t -> span list
(** Completed top-level spans, in execution order. Empty for {!null}. *)

(** {1 Head sampling} *)

val head_keep : sample_rate:float -> fingerprint:string -> bool
(** The head-sampling decision for one unit of work (a serve request):
    keep its span tree iff a uniform draw derived from [fingerprint]
    (FNV-1a over the bytes, finalized with a full-avalanche mixer —
    deterministic across runs and processes, so reruns sample
    identically) falls below [sample_rate]. [>= 1.] keeps
    everything, [<= 0.] keeps nothing, and the kept set at rate [r] is a
    subset of the kept set at any higher rate. This decides {e retention}
    only — capture is unchanged, so sampling never alters the span trees
    that are kept (parallel == sequential determinism included). Callers
    wanting tail-based keep (slow/degraded/error requests always
    retained) OR this decision with their own predicate. *)

(** {1 Ambient tracer} *)

val ambient : unit -> t
(** The current domain's ambient tracer; {!null} unless inside
    {!with_ambient}. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install a tracer as the calling domain's ambient tracer for the
    duration of the call (restored on exit, exceptions included). *)

(** {1 Serialization and comparison} *)

val write_jsonl : out_channel -> span list -> unit
(** One JSON object per line:
    [{"id": .., "parent": id|null, "name": .., "start_s": .., "dur_s": ..,
    "attrs": {..}}]. Ids are depth-first preorder, so parents precede
    their children and ids are deterministic for a deterministic tree. *)

val jsonl_lines : span list -> string list
(** The same lines as {!write_jsonl}, without the channel. *)

val span_json : id:int -> parent:int option -> span -> Json.t
(** The JSONL record of one span (children not included). *)

val equal_shape : span -> span -> bool
(** Structural equality ignoring [start_s]/[dur_s] (recursively):
    the determinism criterion for parallel vs sequential runs. *)
