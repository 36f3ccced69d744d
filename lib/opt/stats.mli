(** Instrumentation record of one {!Engine} search.

    Counters distinguish work done from work avoided: [template_applications]
    counts actual template stage applications (bounds check + code
    generation + vector mapping), while [template_applications_saved] counts
    the applications a from-root replay of every candidate would have
    performed on top of that. *)

type t = {
  nodes_explored : int;  (** candidate sequences considered (incl. root) *)
  duplicates_pruned : int;
      (** within-step candidates dropped because an earlier candidate of the
          same step reduced to the same canonical sequence *)
  legality_cache_hits : int;
      (** candidates answered from the canonical-sequence cache without any
          template application *)
  score_cache_hits : int;
      (** candidates whose objective score was served from cache *)
  illegal : int;  (** candidates rejected (bounds, dependence, unscoreable) *)
  template_applications : int;
  template_applications_saved : int;
  objective_evaluations : int;  (** exact objective simulations actually run *)
  tier0_evaluations : int;
      (** tier-0 cost-model estimates computed (0 on untiered searches) *)
  tier0_pruned : int;
      (** legal candidates denied an exact evaluation by the tier-0 screen
          (outside top-K) or the branch-and-bound cutoff *)
  domains : int;  (** parallelism used (1 = sequential) *)
  work_threshold : int;
      (** steps with fewer evaluation candidates than this ran on the
          calling thread even when [domains > 1] (see {!Pool.map_auto}) *)
  expand_time_s : float;  (** move generation + canonicalization + dedupe *)
  evaluate_time_s : float;
      (** a step's tier-0 batch, screen and exact batch (all domains) *)
  legality_time_s : float;
      (** per-candidate template application + dependence testing (summed
          across domains, merged in input order) — a component of
          [evaluate_time_s], plus the root's legality check *)
  tier0_time_s : float;
      (** per-candidate tier-0 analytic estimates (summed across domains) *)
  exact_time_s : float;
      (** per-candidate exact objective simulations (summed across
          domains), including the root evaluation *)
  merge_time_s : float;  (** deterministic sort/beam selection *)
  total_time_s : float;
}

val pp : Format.formatter -> t -> unit

val to_json_value : t -> Itf_obs.Json.t
(** The record as a JSON object, for embedding in larger documents. *)

val to_json : t -> string
(** One JSON object (no trailing newline); used by [bench --search]. *)

val record : Itf_obs.Metrics.t -> t -> unit
(** Fold the record into a metrics registry: counters add under
    [engine.*] names (so repeated searches accumulate) plus the two-tier
    objective counters [objective.exact_evals] / [objective.tier0_evals] /
    [objective.tier0_pruned]; [engine.domains] and [engine.work_threshold]
    are gauges; the total time lands in an [engine.total_time_ms]
    histogram and each phase time (expand / legality / tier0 / exact /
    merge) in an [engine.phase_us{phase=...}] duration histogram — one
    observation per search, on the shared
    {!Itf_obs.Metrics.duration_buckets} layout, so a live registry always
    answers "which phase is eating the time" even when span tracing is
    off or head-sampled out. *)
