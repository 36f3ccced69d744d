(** A small fixed-size domain pool (OCaml 5 [Domain]s, standard library
    only) used by {!Engine} to fan candidate evaluation out across cores.

    {!map_auto} preserves input order — [output.(i)] is always [f input.(i)] —
    so callers can merge results deterministically regardless of domain
    scheduling. *)

type t

val shared : workers:int -> unit -> t
(** The process-wide persistent pool, created on first use and reused
    across searches (domain spawn costs rival a whole small search). Grows
    to at least [workers] worker domains, never shrinks, and is shut down
    at process exit. *)

val default_threshold : int
(** Work threshold of {!map_auto}: batches smaller than this run on the
    calling thread. *)

val submit : t -> (unit -> unit) -> unit
(** [submit t job] enqueues one fire-and-forget job for a worker domain.
    Returns immediately; the caller owns completion signalling. The pool
    must have at least one worker domain or the job never runs.
    [job] must not raise — an escaping exception kills the worker domain.
    Used by the serve scheduler to run requests on the shared pool. *)

val map_auto : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map; blocks until every element is done.
    Batches smaller than {!default_threshold} run sequentially on the
    calling thread — the fan-out rendezvous costs more than it buys on
    small steps. Otherwise the calling thread works alongside the pool's
    [w] workers, so parallelism is [w + 1], and indices are claimed in
    size-adaptive chunks, about four per participant. If [f] raises on
    any element, the first such exception (in index order) is re-raised
    after all elements finish. *)
