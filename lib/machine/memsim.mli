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
  closures : int;
      (** statement closures the compiled program built
          ({!Itf_exec.Compile.closures}); zero for {!run}. An address
          program builds them too, for the entries that fall back. *)
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

(** {1 Footprint certificate}

    The paper's transformations reorder a nest's iterations and keep its
    body, and every entry above lays a nest's arrays out by name and
    size alone. So a legal transformed nest runs its root's body
    statement instances, each reading the same values, in another order:
    it touches the same addresses, and so the same set of cache lines.
    An LRU set evicts only once more than [assoc] distinct lines map to
    it, which no order of the accesses changes. A root whose run evicts
    nothing therefore proves that each of its legal transformed nests
    evicts nothing and misses exactly once per line it touches: its
    cache stats are the root's (the compulsory-only case of the 3C miss
    model). *)

val certifies : Nest.t -> result -> bool
(** [certifies root r], with [r] a completed simulation of [root], holds
    under two rules: [r]'s cache evicted nothing, and [root]'s loop
    bounds, steps and inits read no array, so that every line the root
    or a transformed nest touches comes from a body statement instance
    (a bound that reads an array may be read more or less often, or not
    at all, once its loop moves). When it holds, every nest derived from
    [root] by a legal transformation sequence has [r.cache] as its cache
    stats when simulated against the same geometry in an environment
    with the same array sizes. The locality objective answers
    those nests from it without simulating (the search's
    [Search.cache_misses]). *)
