(** Instrumentation record of one {!Engine} search.

    The record is the search's own accumulator: {!Engine.search} starts
    from {!create}, bumps the fields as it works and returns the record
    in its outcome. Nothing else writes it.

    Counters distinguish work done from work avoided: [template_applications]
    counts template stage applications (bounds check + code generation +
    vector mapping) of the legality checks the search made, while
    [template_applications_saved] counts the applications a from-root
    replay of every candidate would have performed on top of that. Both
    are independent of what the process-wide memos already hold. *)

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
          this one reads 0 on a warm search. It and the two below are
          the same at every domain count: a family or reference-form
          cell two domains fill at once is stored, and counted, once. *)
  mutable refs_inherited : int;
      (** tier-0 estimates this search computed whose candidate shares
          its parent's array reference forms, already computed
          ({!Itf_core.Legality.references}) *)
  mutable refs_computed : int;
      (** reference-form computations ({!Itf_bounds.Access.of_nest})
          this search's tier-0 estimates ran. Both read 0 when the
          estimates come from a kept expansion, and on an untiered or
          parallel-objective search, which never reads the forms. *)
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

val phases : t -> (string * float) list
(** The per-phase times in seconds, in pipeline order: [expand],
    [legality], [tier0], [exact], [merge]. {!record} and the serve
    layer's per-request breakdown both read this list. *)

val counters : t -> (string * int) list
(** The deterministic counters — every [int] field but the shared work
    ([families_built], [refs_inherited], [refs_computed], which read 0
    when warm), [domains] and [work_threshold] — named as in
    {!to_json_value}: the same on every host, at every domain count,
    warm or cold. *)

val pp : Format.formatter -> t -> unit

val to_json_value : t -> Itf_obs.Json.t
(** The record as a JSON object, for embedding in larger documents. *)

val record : Itf_obs.Metrics.t -> t -> unit
(** Fold the record into a metrics registry: counters add under
    [engine.*] names (so repeated searches accumulate) plus the two-tier
    objective counters [objective.exact_evals] / [objective.tier0_evals] /
    [objective.tier0_pruned] (not the shared-work counts, whose
    totals would differ warm and cold); [engine.domains] and [engine.work_threshold]
    are gauges; the total time lands in an [engine.total_time_ms]
    histogram and each phase time (expand / legality / tier0 / exact /
    merge) in an [engine.phase_us{phase=...}] duration histogram — one
    observation per search, on the shared
    {!Itf_obs.Metrics.duration_buckets} layout, so a live registry always
    answers "which phase is eating the time" even when span tracing is
    off or head-sampled out. The instruments are looked up when the
    registry differs from the one the previous call wrote, so a process
    recording into one registry looks them up once. *)
