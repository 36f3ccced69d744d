(** Automatic transformation selection — the paper's stated "main direction
    for future work ... using this framework in an automatic transformation
    system, so as to optimize loop nests for data locality [and] parallel
    execution" (Section 6).

    The search exploits the framework's separation of transformations from
    loop nests (Section 5): candidate sequences are built, legality-checked
    and scored without mutating the nest; only the winner's generated code
    is returned. This module supplies the search vocabulary — template
    "moves" and ready-made objectives; {!Engine.search} is the beam search
    over them, and every explored sequence passes through
    {!Itf_core.Legality}, so only legal transformations are ever scored. *)

type objective = Itf_core.Framework.result -> float
(** Lower is better. Receives the legality-checked result (transformed
    nest plus mapped dependence vectors). *)

type move_set = {
  id : int;  (** names the set; equal ids, equal sets *)
  moves : (Itf_core.Template.t * int) array;
      (** the moves, in order, each with its {!Itf_core.Template.intern_id} *)
}

val move_set : depth:int -> move_set
(** The candidate single-template moves for a nest currently [depth]
    deep: all interchanges and reversals, unit skews of adjacent loop
    pairs, single-loop parallelization, square blocking of contiguous
    ranges of size 4 and 8 (only up to depth 3), and full coalescing.
    They depend on [depth] alone. Built and interned on the first call
    for that depth and shared by every later call, from any domain. *)

(** {1 Ready-made objectives} *)

val cache_misses :
  ?metrics:Itf_obs.Metrics.t -> ?memo:bool ->
  params:(string * int) list ->
  unit -> objective
(** Simulated cache misses of one full execution on an 8 KiB, 64-byte-line,
    2-way cache, run through {!Itf_machine.Memsim.simulate}. Arrays are laid out from the nest's own access
    pattern; a nest that is not static-control runs on values, and the
    arrays it writes are re-filled with the same data before every
    evaluation, so transformed nests score on identical data.

    Footprint certificate: when the root's own run (the result whose
    [derivation] is its [root]) is certified by
    {!Itf_machine.Memsim.certifies} — it evicted nothing, and the root's
    loop bounds, steps and inits read no array — every later result of
    that root is answered with the root's miss count without compiling
    or running anything. The certificate is bound to the root's
    derivation id, so an objective evaluated on several roots answers
    each root's results only from that root's own run; so is the scan of
    the nest's arrays. Scores are the simulation's either way.

    [metrics], when given, accumulates [memsim.runs] (completed
    simulations), [memsim.certified] (results the certificate
    answered), [memsim.cache.access], [memsim.cache.miss] (a certified
    result adds the root's counts, which are its own),
    [memsim.stream.entries], [memsim.stream.fallbacks] and
    [exec.compile.closures] (statement closures the simulations
    compiled) counters (atomic adds — totals are domain-schedule
    independent). Every
    evaluation that returns a score is one run or one certified answer.
    The objective creates these counters, and its memo hit counter, in
    [metrics] when it is built and keeps them, so an evaluation makes no
    registry lookup.

    [?memo] (default [true]): the objective is a pure function of
    (params, nest), and a result's derivation id
    ({!Itf_core.Framework.result}) determines its nest, so scores are
    memoized process-wide by derivation id + instantiation fingerprint.
    The nest itself is never interned or hashed. Hits return the stored
    float bit-identically and skip the simulation (and its [memsim.*]
    counters; they bump [memsim.memo.hits] instead). Two spellings that
    generate one nest are simulated once each. [~memo:false] simulates
    every call. *)

val parallel_time :
  ?metrics:Itf_obs.Metrics.t -> ?memo:bool -> procs:int ->
  params:(string * int) list ->
  unit -> objective
(** Simulated parallel execution time on [procs] processors, each
    parallel loop start costing 2.0
    ({!Itf_machine.Parallel.time_compiled}, which reads loop headers
    only). It runs against an environment of the parameters alone,
    built once per objective: no array is declared or filled, unless a
    loop header reads one. [metrics] accumulates a [parsim.runs]
    counter. [?memo] as in {!cache_misses} (hit counter:
    [parsim.memo.hits]). *)

val max_procs : int
(** Largest [procs] the front ends accept: 1024. *)

val known_objective : string -> (unit, string) result
(** [Ok ()] for a name {!of_name} accepts, else the error it gives. *)

val of_name :
  ?metrics:Itf_obs.Metrics.t -> ?memo:bool -> string -> procs:int ->
  params:(string * int) list ->
  (objective * Costmodel.spec, string) result
(** The objective ["locality"] ({!cache_misses}; 8-byte elements) or
    ["parallel"] ({!parallel_time}) paired with the tier-0 spec that
    mirrors it; any other name is an [Error]. *)
