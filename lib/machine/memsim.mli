(** Memory-hierarchy simulation of a loop nest execution.

    Lays the environment's arrays out contiguously (each base aligned to a
    cache line), executes the nest with a tracer that feeds every element
    access to a {!Cache} at 8 bytes per element, and reports the cache's
    access, hit and miss counts. *)

open Itf_ir

type result = { cache : Cache.stats }

val run :
  ?cache:Cache.t ->
  Cache.config ->
  Itf_exec.Env.t ->
  Nest.t ->
  result
(** [run config env nest] executes [nest] in [env] (mutating its arrays)
    while simulating the cache, using the tree-walking interpreter and the
    environment tracer.

    [cache], when given, is {!Cache.reset} and used as the simulation
    scratch instead of allocating a fresh cache — for callers running many
    simulations against one geometry (the search objective hot path).
    Results are bit-identical with and without it.
    @raise Invalid_argument if its geometry differs from [config]. *)

val run_compiled :
  ?cache:Cache.t ->
  Cache.config ->
  Itf_exec.Env.t ->
  Nest.t ->
  result
(** As {!run}, but through {!Itf_exec.Compile}: the cache access is a
    direct call inside each compiled load/store closure with the array's
    base address resolved at compile time, instead of a tracer invocation
    doing a name lookup per access. Identical array layout, access
    sequence, stats, and final array state as {!run} — just faster (the
    objective hot path of {!Itf_opt.Engine.search}). *)
