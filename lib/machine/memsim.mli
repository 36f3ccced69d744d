(** Memory-hierarchy simulation of a loop nest execution.

    Lays the environment's arrays out contiguously (each base aligned to a
    cache line), executes the nest feeding every element access to a
    {!Cache} at 8 bytes per element, and reports the cache's access, hit
    and miss counts.

    {!simulate} is the search's entry; {!run} and {!run_compiled} execute
    the nest's values and are its oracles. Every entry records a
    [memsim.run] span on the ambient tracer with a [path] attribute:
    ["stream"] for {!simulate}'s address program, ["values"] otherwise. *)

open Itf_ir

type result = {
  cache : Cache.stats;
  stream : Itf_exec.Compile.stream_stats;
      (** innermost-loop entries {!simulate} replayed as address streams
          and entries it ran through closures; zero for {!run} and
          {!run_compiled} *)
}

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

val simulate :
  ?cache:Cache.t ->
  Cache.config ->
  Itf_exec.Env.t ->
  Nest.t ->
  result
(** The same access, hit and miss counts as {!run_compiled}, and the same
    exception at the same access. A static-control nest
    ({!Itf_exec.Compile.static_control}) runs as an address program
    ({!Itf_exec.Compile.compile_addresses}): no array of [env] is read or
    written, and innermost loops whose subscripts are affine in their
    index are replayed through {!Cache.stream}. Every other nest is
    {!run_compiled}, with its effect on [env]. Only the static-control
    test selects the path. *)
