(** Incremental, memoized, multicore, two-tier transformation search.

    Beam search over {!Search.move_set}, scored by a {!Search.objective}:
    each step extends the [beam] best scored prefixes by every move and
    keeps the [beam] best results under a total candidate order. The
    search is engineered for throughput:

    - {b incremental legality}: frontier nodes carry a resumable
      {!Itf_core.Legality} prefix state, so appending a move costs one
      template application instead of replaying the whole sequence;
    - {b memoization}: candidates are canonicalized with
      {!Itf_core.Sequence.reduce_id}; a cross-step cache keyed on the
      canonical sequence's intern id (an O(1) integer probe — see
      {!Itf_mat.Hashcons} and DESIGN.md §10) answers re-derived
      transformations (interchange twice, reversal pairs, composed
      unimodulars, ...) without touching the framework. Behind it, the
      process-wide [core.derivation] table answers legality across
      searches ({!Itf_core.Framework.check_child}): a candidate's entry
      is keyed on the parent state's derivation id (which names the root
      nest, its vectors and the raw sequence the parent state holds —
      not the candidate's spelling, since a cache hit can carry another
      spelling's state) and the appended template's id, and holds the
      verdict — state and result, or the rejection — plus the template
      applications the miss performed. A result's derivation id also
      keys the tier-0 and exact memos, so no candidate's nest is
      interned. A hit replays the application count, so every {!Stats}
      counter reads the same warm or cold. The table is capped at 4096
      entries, a constant that holds a daemon's warm set while bounding
      what novel nests pin;
    - {b one lookup per parent}: a parent's expansion — each child's
      spelling and reduction with their intern ids, its derivation
      entry (held weakly, so an evicted child is not kept alive) and
      its tier-0 estimate — is kept on the parent's legal state
      ({!Itf_core.Framework.annex}) from the parent's second expansion
      on, keyed on the parent's raw spelling, the {!Search.move_set}
      and the tier-0 spec. A warm step reads it back and probes no
      shared table per candidate; the moves are built and interned once
      per depth. The verdicts it reads are the stored ones, so counts
      and rejection causes replay exactly;
    - {b two-tier objective}: every step checks legality of its fresh
      candidates in one batch, screens them, and scores the survivors
      with the exact objective in a second batch. With [~tier0] the screen
      ranks by the analytic {!Costmodel} (no simulation), so only the best
      [~exact_topk] per step reach the exact simulator, and the admissible
      tier-0 [bound] cuts whole subtrees branch-and-bound style against
      the best exact score seen so far (only when
      {!Costmodel.subtree_admissible}). Without it the screen is open:
      every legal candidate is scored exactly (an untiered search);
    - {b multicore}: cache misses are evaluated across the process-wide
      persistent {!Pool.shared} of OCaml 5 domains ([domains = 1] never
      touches it), with small steps running sequentially
      ({!Pool.map_auto}). Merging is order-preserving, candidates are
      ranked by a total order (score, canonical sequence, raw sequence),
      and the branch-and-bound incumbent only advances between steps —
      so results are bit-identical to a sequential run.

    {b Observability}: pass a {!Itf_obs.Tracer} to record the span tree
    (search → step → expand / tier0 (named legality when untiered) /
    exact / merge → per-candidate objective spans below exact; the
    simulators attach below the objective via the ambient tracer). Per-candidate
    spans are forked and joined in input order, so the span tree and all
    metric totals are identical between sequential and parallel runs —
    timings aside. Pass a {!Itf_obs.Metrics} registry to accumulate
    [legality.rejections{reason=...}] counters and the {!Stats} record;
    pass [~provenance:true] to keep every rejected candidate with its
    structured cause plus, on tiered searches, every tier-0 screening
    {!decision} ([loopt optimize --explain]).

    {!Stats} records what was done and what was avoided. *)

open Itf_ir

type cause =
  | Rejected of Itf_core.Legality.reason list
      (** the legality test failed, with the structured reasons *)
  | Unscoreable  (** legal, but the objective returned NaN or raised *)

(** What the tier-0 screen did with one legal candidate. *)
type tier0_verdict =
  | Survived  (** forwarded to the exact simulator *)
  | Screened_out  (** legal, but ranked outside the top [exact_topk] *)
  | Bound_pruned
      (** admissible bound already exceeds the incumbent exact score: the
          candidate (and, for subtree-admissible specs, all its
          descendants) can never win *)

type decision = {
  candidate : Itf_core.Sequence.t;
  tier0_score : float;
  tier0_bound : float;
  verdict : tier0_verdict;
}

type rejection = { candidate : Itf_core.Sequence.t; cause : cause }

(** Anytime budget for {!search}: a wall-clock deadline (seconds from
    search start) and/or a cap on nodes explored. Checked only at batch
    boundaries — at every step start, before a step's tier-0 batch, and
    between its tier-0 and exact batches. On expiry the search stops and
    returns the best-so-far incumbent marked {!Degraded} instead of
    raising; a partially evaluated step is abandoned whole, so the
    outcome is a deterministic function of the cut point. *)
type budget = { deadline_s : float option; max_nodes : int option }

(** Whether the search ran to completion or was cut by its {!budget}.
    [Degraded.cut] names the checkpoint that tripped, e.g.
    ["step2.exact:deadline"] — same cut point, same outcome. *)
type completion = Complete | Degraded of { cut : string }

type outcome = {
  sequence : Itf_core.Sequence.t;  (** winning sequence, as generated *)
  canonical : Itf_core.Sequence.t;  (** its peephole reduction *)
  result : Itf_core.Framework.result;
  score : float;
  stats : Stats.t;  (** the search's own counters, final once returned *)
  completion : completion;
      (** {!Complete}, or {!Degraded} when the {!budget} expired and
          [sequence] is only the best found before the cut *)
  rejections : rejection list;
      (** every rejected candidate in deterministic merge order, with its
          cause — empty unless [~provenance:true] *)
  decisions : decision list;
      (** every tier-0 screening decision in deterministic screen order —
          empty unless [~provenance:true] and [~tier0] *)
}

val pp_cause : Format.formatter -> cause -> unit

val verdict_label : tier0_verdict -> string
(** ["survived"], ["screened_out"] or ["bound_pruned"]. *)

val completion_label : completion -> string
(** ["ok"] or ["degraded"] — the serve-layer status slug. *)

val default_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)] — leave one core for
    the rest of the process. *)

val default_exact_topk : int
(** Default [~exact_topk]: exact objective evaluations per step on tiered
    searches. *)

val search :
  ?beam:int ->
  ?steps:int ->
  ?domains:int ->
  ?tracer:Itf_obs.Tracer.t ->
  ?metrics:Itf_obs.Metrics.t ->
  ?provenance:bool ->
  ?tier0:Costmodel.spec ->
  ?exact_topk:int ->
  ?tier0_only:bool ->
  ?budget:budget ->
  Nest.t ->
  Search.objective ->
  outcome option
(** [search nest objective] beam-searches sequences of at most [steps]
    (default 3) moves, keeping the [beam] (default 6) best scored
    prefixes per step. Only scored candidates are extended. The empty
    sequence is always a candidate, so the winner never scores worse than
    the original nest. [domains] is the total parallelism (default
    {!default_domains}; [1] runs entirely on the calling domain).

    [tier0], when given, closes the screen: the {!Costmodel} spec should
    mirror the exact objective (same cache geometry / processor count /
    parameters). Without it every legal candidate is scored exactly, and
    no tier-0 estimates or decisions are recorded. [exact_topk] (default
    {!default_exact_topk}, clamped to at least [beam]) caps exact
    simulations per step; [tier0_only] (requires [tier0]) skips the exact
    simulator entirely and beam-searches on tier-0 scores alone, the
    root's included: the screen then neither bound-prunes nor cuts at
    [exact_topk]. It is the untrusted-but-fast escape hatch, whose winner
    is {e not} guaranteed to match the exact search.

    Cache keys are canonical-sequence intern ids from
    {!Itf_core.Sequence.reduce_id}, and tier-0 estimates are kept in the
    parent's expansion ({!Costmodel.estimate}). The screen sorts
    its candidates once, by (estimate, canonical sequence, raw
    sequence). Intern ids are used for cache {e equality} only —
    candidate ordering stays structural — so the winner, score and
    provenance do not depend on intern-table history. Interning happens
    on the search's own expand thread; the tables are sharded, so the
    concurrent searches of several serve workers intern in parallel.

    [budget], when given, makes the search {e anytime}: the deadline
    and/or node cap are checked at batch boundaries only (never inside a
    batch), and on expiry the best candidate found so far is returned
    with [completion = Degraded] — never an exception. A cut abandons the
    in-flight step entirely, so two runs cut at the same checkpoint
    return bit-identical outcomes, and a run whose budget never trips is
    bit-identical to an unbudgeted one. The root nest is always
    evaluated, budget or not: even a 0-second deadline yields the
    identity sequence rather than [None].

    [tracer]/[metrics] default to disabled; [provenance] (default false)
    retains per-candidate rejection causes and tier-0 decisions in the
    outcome; with [metrics], the final size of the search's cross-step
    cache is published as the [engine.cache.size] gauge, and the
    Fourier–Motzkin refutations and sign vectors of the root's
    dependence analysis are added to the [dep.fm_calls] and [dep.sigmas]
    counters (none when the analysis was memoized). The search sets no intern-table gauge: {!record_tables}
    does, when a registry is dumped. It looks each
    [legality.rejections{reason}] counter up once, on the first
    rejection for that reason, and makes no registry lookup per
    candidate. Returns [None] when not even the untransformed nest is
    scoreable.

    Timing ({!Stats.phases}): the root's legality check and its score
    are timed on their own; each step's tier-0 batch and exact batch
    are timed as wholes, one clock read at each end. Inside the tier-0
    batch only a legality verdict computed on this call is timed (the
    candidate's [core.derivation] entry held none), so a candidate
    whose verdict is read back reads no clock and a new one reads two.
    Those durations are [legality]; the rest of the batch, plus the
    screen, is [tier0]. Without [tier0] the whole batch and the open
    screen are [legality]. *)

val record_tables : Itf_obs.Metrics.t -> unit
(** Sets the [intern.size]/[intern.hits]/[intern.misses]/
    [intern.evictions] gauges, labeled by table name, of every table in
    {!Itf_mat.Hashcons.stats} to their values now. Call it right before
    dumping a registry: the gauges are process-wide, so the dump then
    lists every table as of the dump. *)

