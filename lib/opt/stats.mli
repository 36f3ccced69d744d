(** Instrumentation record of one {!Engine} search.

    The record is the search's own accumulator: {!Engine.search} starts
    from {!create}, bumps the fields as it works and returns the record
    in its outcome. Nothing else writes it.

    Counters distinguish work done from work avoided: [template_applications]
    counts template stage applications (bounds check + code generation +
    vector mapping) of the legality checks the search made, while
    [template_applications_saved] counts the applications a from-root
    replay of every candidate would have performed on top of that. Both
    are independent of what the process-wide memos already hold.

    {b The ledger.} Every statistic [--stats], [--stats-json], the
    metrics registry and serve's [status] print is one declaration in
    {!ledger}: its JSON key, its [--stats] text and its registry
    counters. {!pp}, {!to_json_value}, {!phases}, {!record} and
    {!status} are derived from it. Adding a counter is a record field,
    its zero in {!create}, one {!ledger} line and its bump site. *)

type t = {
  mutable nodes_explored : int;
      (** candidate sequences considered (incl. root) *)
  mutable duplicates_pruned : int;
      (** within-step candidates dropped because an earlier candidate of the
          same step reduced to the same canonical sequence *)
  mutable legality_cache_hits : int;
      (** candidates answered from the canonical-sequence cache without any
          template application *)
  mutable score_cache_hits : int;
      (** candidates whose objective score was served from cache *)
  mutable illegal : int;
      (** candidates rejected (bounds, dependence, unscoreable) *)
  mutable template_applications : int;
      (** applications the search's legality checks stand for. A check
          answered by a stored verdict ({!Itf_core.Framework.check_child}) counts the
          applications its original computation performed, so the
          counter is identical warm or cold — the same convention as
          [objective_evaluations], which counts memo-answered probes. *)
  mutable template_applications_saved : int;
  mutable objective_evaluations : int;
      (** exact objective evaluations requested, including those the
          process-wide objective memo answered without simulating *)
  mutable tier0_evaluations : int;
      (** tier-0 cost-model estimates computed (0 on untiered searches) *)
  mutable tier0_pruned : int;
      (** legal candidates denied an exact evaluation by the tier-0 screen
          (outside top-K) or the branch-and-bound cutoff *)
  mutable families_built : int;
      (** parent families ({!Itf_core.Family}) built by the legality
          verdicts this search computed: one per parent whose children
          it checked first in the process, plus those of
          reduced-sequence replays. A verdict read back from
          [core.derivation] builds none, so unlike the counters above
          this one reads 0 on a warm search. It and the three below are
          the same at every domain count: a family or reference-form
          cell two domains fill at once is stored, and counted, once. *)
  mutable refs_inherited : int;
      (** tier-0 estimates this search computed whose candidate shares
          its parent's array reference forms
          ({!Itf_core.Legality.references}) *)
  mutable refs_mapped : int;
      (** reference forms this search's tier-0 estimates derived from a
          parent's through a template ({!Itf_core.Family.origin}): the
          candidates' own, and the parents' they filled first *)
  mutable refs_computed : int;
      (** reference-form computations ({!Itf_bounds.Access.of_nest})
          this search's tier-0 estimates ran, counted as [refs_mapped].
          All three read 0 when the estimates come from a kept
          expansion, and on an untiered or parallel-objective search,
          which never reads the forms. *)
  mutable codegen : int array;
      (** code generations ({!Itf_core.Codegen.apply}) the legality
          verdicts this search computed ran, per template kind
          ({!Itf_core.Template.kind}); shared work like
          [families_built] *)
  mutable domains : int;  (** parallelism used (1 = sequential) *)
  mutable work_threshold : int;
      (** steps with fewer evaluation candidates than this ran on the
          calling thread even when [domains > 1] (see {!Pool.map_auto}) *)
  mutable expand_time_s : float;
      (** move generation + canonicalization + dedupe *)
  mutable evaluate_time_s : float;
      (** a step's tier-0 batch, screen and exact batch (all domains) *)
  mutable legality_time_s : float;
      (** the root's legality check plus the legality verdicts the
          tier-0 batches computed (template application + dependence
          testing; summed across domains). A verdict read back from its
          [core.derivation] entry is not timed: its lookup counts as
          [tier0]. On an untiered search (no screen) the rest of each
          tier-0 batch and the open screen count here too, as [tier0]
          would count them. A component of [evaluate_time_s], plus the
          root. *)
  mutable tier0_time_s : float;
      (** each step's tier-0 batch, wall-clock, less the verdicts
          counted in [legality_time_s] — verdicts and estimates read
          back, estimates computed, the coordinator folding the results
          in — plus the screen. At [domains > 1] the verdicts are summed
          across domains while the batch is wall-clock, so the
          remainder is floored at zero, and tier-0 work that overlapped
          a verdict on another domain goes uncounted. On a
          [tier0_only] search it also holds the root's estimate; 0 on an
          untiered search. *)
  mutable exact_time_s : float;
      (** the root's exact evaluation plus each step's exact batch,
          wall-clock (at [domains > 1], not a sum across domains) *)
  mutable merge_time_s : float;  (** deterministic sort/beam selection *)
  mutable total_time_s : float;
}

val create : unit -> t
(** Every counter and time zero. *)

(** How a statistic reaches the metrics registry. *)
type source =
  | Count of (t -> int) * string list
      (** a deterministic counter: the same on every host, at every
          domain count, warm or cold. {!record} adds it to each named
          registry counter. *)
  | Shared of (t -> int) * string
      (** shared work: reads 0 when warm, and is the same at every
          domain count. {!record} adds it to the named registry counter,
          which totals the cold work of the searches recorded; the bench
          gates and the warm comparisons skip it. *)
  | Templates of (t -> int array) * string
      (** shared work per template kind: {!record} adds each kind's count
          to the named registry counter labelled [template] with the
          kind's name; its JSON value maps the names of the kinds counted
          to their counts, and its [--stats] text reads
          [Block 4, Unimodular 2] ([none] when nothing was counted) *)
  | Setting of (t -> int) * string  (** set as the named gauge *)
  | Phase of (t -> float) * string
      (** a pipeline phase's seconds, observed in microseconds in
          [engine.phase_us{phase=NAME}] *)
  | Time of (t -> float) * string option
      (** seconds, observed in milliseconds in the named histogram *)
  | Read of string
      (** a registry counter the search's simulators or dependence
          analysis bump themselves; it is read back from the registry,
          and has no value without one *)

(** A statistic's [--stats] text: ["{}"] marks its value. [Line] opens a
    line, [Join] continues the line the previous statistic printed, and
    [Above] opens a line printed above that one. *)
type text = Line of string | Join of string | Above of string

(** A statistic: its [--stats-json] key, [--stats] text and source. *)
type stat = { key : string; text : text; source : source }

val ledger : stat list
(** Every statistic, in [--stats-json] order. *)

(** The registry counters of the [Read] statistics, bumped by the cache
    simulator ({!Search.cache_misses}) and the root's dependence analysis
    ({!Engine.search}). A [Read] reports 0 for a counter the registry
    does not hold, and registers nothing
    ({!Itf_obs.Metrics.read_counter}). *)

val memsim_runs : string
(** Cache simulations run. *)

val memsim_certified : string
(** Locality evaluations the root's footprint certificate answered. *)

val memsim_stream_entries : string
(** Innermost-loop entries the simulations replayed as address streams. *)

val memsim_stream_fallbacks : string
(** Innermost-loop entries the simulations ran through closures. *)

val dep_fm_calls : string
(** Fourier–Motzkin refutations of the root's dependence analysis. *)

val dep_sigmas : string
(** Sign vectors the root's dependence analysis enumerated, summed over
    its reference pairs (each lex-positive vector that agrees with a
    pair's pins, before any is refuted). *)

val compile_closures : string
(** Statement closures the cache simulations compiled
    ({!Itf_exec.Compile.closures}): 0 for a simulation whose address
    program needs none, and 0 for a parallel-objective search, whose
    simulator compiles loop headers only. *)

val phases : t -> (string * float) list
(** The per-phase times in seconds, in pipeline order: [expand],
    [legality], [tier0], [exact], [merge]. The serve layer's per-request
    breakdown reads this list. *)

val pp : ?metrics:Itf_obs.Metrics.t -> Format.formatter -> t -> unit
(** The [--stats] block: one line per [Line] or [Above] statistic. The
    [Read] lines print only with [metrics]. *)

val to_json_value : ?metrics:Itf_obs.Metrics.t -> t -> Itf_obs.Json.t
(** The record as a JSON object keyed as {!ledger} says, in its order;
    the [Read] statistics only with [metrics]. *)

val record : Itf_obs.Metrics.t -> t -> unit
(** Fold the record into a metrics registry: each [Count], [Shared] and
    [Templates] adds to its counters (so repeated searches accumulate), each
    [Setting] sets its
    gauge, each [Phase] and the total time make one observation per
    search on the shared {!Itf_obs.Metrics.duration_buckets} layout, so
    a live registry always answers "which phase is eating the time" even
    when span tracing is off or head-sampled out. The instruments are
    looked up when the registry differs from the one the previous call
    wrote, so a process recording into one registry looks them up once. *)

val status : Itf_obs.Metrics.t -> (string * Itf_obs.Json.t) list
(** Serve's [status] sections that the registry holds for the ledger:
    [phases_us] (each phase's summed microseconds), [search_us] (the
    searches recorded and their total time) and one section per [Read]
    prefix ([memsim], [dep], [exec]), whose fields are the rest of the metric
    name ([memsim.stream.entries] is [memsim]'s [stream_entries]). *)
