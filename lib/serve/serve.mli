(** [loopt serve] — a long-running search daemon speaking JSONL.

    One JSON object per line on stdin (responses on stdout) and,
    optionally, on a Unix-domain socket with one thread per connection.
    A bounded admission queue ({!Scheduler}) feeds up to [workers]
    worker domains of the pool the engine's candidate fan-out shares
    ({!Itf_opt.Pool.shared}), so independent searches run in parallel.
    {!Protocol} reads lines and renders responses, and
    {!Response_cache} holds the LRU of complete answers. Every search
    shares the process-wide hash-cons intern tables, the
    canonicalization memo and the exact-objective memos
    ({!Itf_opt.Search}) — all sharded and safe for concurrent use — so the second identical-shaped request is answered mostly from
    those tables, and an {e exactly} identical request is answered from
    a bounded LRU response cache without running the engine at all.

    {b Cache hits on the reader}: the cache also maps each request's
    text (every fingerprint field, with the nest source in place of its
    intern id) to the fingerprint it was answered under. When a
    request's text is found there and its entry is still cached, the
    thread that read the line answers it: it is never queued, never
    shed, observes no queue wait and is not parsed. That happens only
    when its channel owes no earlier response ({!handle_line} always
    qualifies); otherwise the hit queues behind the earlier requests.
    A respelled nest (a comment, a blank line) is a different text: it
    queues, and the worker finds it by fingerprint and records the new
    spelling. The index holds at most the cache's capacity entries and
    is cleared when full; with [max_cache = 0] it does not exist.

    {b A hit is written from stored bytes}: an entry keeps its body's
    fields rendered once, when it is stored, and every hit, by text or
    by fingerprint, writes
    [{"id": <id>, <stored fields>, "cached": true, "time_ms": <t>}],
    byte for byte what rendering the whole response would write; only
    the id and the time are rendered per hit.

    {b Determinism}: result payloads are byte-identical whether the
    server runs one worker or eight, cold or warm — the engine's orders
    are structural and the memoized objectives return bit-identical
    floats regardless of which worker warmed them (DESIGN.md §13). Under
    load responses may complete out of request order; clients correlate
    by ["id"]. With [workers = 1] responses come back in request order.

    {b Scheduling}: when [queue_depth] searches are already waiting, a
    new search is shed immediately with [status = "overloaded"] instead
    of stalling the client. A request whose deadline expires while it
    waits in the queue returns [status = "degraded"] with
    [cut = "queue:deadline"] without running the engine (and is never
    cached). Introspection ops are exempt from shedding.

    {b Request} fields: ["nest"] (required; loop-nest source text),
    ["id"] (echoed verbatim), and the fields of {!Itf_opt.Request.t}
    under their own names: ["objective"] (string), ["params"] (object
    of integers), ["procs"], ["steps"], ["beam"], ["exact_topk"]
    (integers), ["tier0_only"] (boolean), ["deadline_ms"] (number) and
    ["max_nodes"] (integer). An absent field takes
    {!Itf_opt.Request.default}'s value, and an absent ["deadline_ms"]
    the server's default deadline. A field of the wrong type is an
    error response; so is a request that {!Itf_opt.Request.check}
    rejects, with its message ([loopt optimize] gives the same). Type
    errors are reported before range errors. The response cache is
    keyed by {!Itf_opt.Request.key}. The deadline is measured from
    receipt, so queueing delay counts against it.

    {b Ops}: [{"op": "shutdown"}] drains the queue and every running
    worker, then stops the server (its response is the last one out);
    [{"op": "status"}] returns a live snapshot (uptime, request
    counters, latency quantiles from the [serve.request_us] histogram,
    queue depth/capacity/shed count and wait quantiles (queued jobs
    only), busy workers,
    the sections {!Itf_opt.Stats.status} reads from the registry
    (per-phase time breakdown [phases_us], searches [search_us], the
    cache simulator's [memsim] runs, certified answers and stream
    counters, the dependence analysis's [dep.fm_calls] and
    [dep.sigmas]),
    response-cache health ([cache]: size, capacity, hits, misses,
    evictions and [spellings], the size of its text index),
    hash-cons intern-table health, process memory
    ([memory.heap_mb] and [memory.top_heap_mb], from [Gc.quick_stat],
    never a forced collection), and the recent slow requests);
    [{"op": "metrics"}] returns the whole registry in the Prometheus text
    exposition format under a ["metrics"] string field. Most of the
    registry is updated as requests run, but the gauges that mirror
    state kept elsewhere are fresh only when read: the [metrics] op and
    each [metrics_out] write first set the response cache's
    [serve.cache.size]/[hits]/[misses]/[evictions], the intern tables'
    [intern.*] ({!Itf_opt.Engine.record_tables}) and the [gc.heap_mb] and
    [gc.top_heap_mb] memory readings, so they agree with [status]. A
    request sets none of them.
    Any other ["op"] is an error response.

    {b Response} fields (search): ["id"], ["status"] ([ok] — complete;
    [degraded] — budget expired, best-so-far answer plus a ["cut"]
    checkpoint name; [overloaded] — shed at admission, with an
    ["error"] message; [error] — malformed request, unparseable nest,
    unscoreable nest), ["score"], ["sequence"], ["canonical"],
    ["explored"], ["exact_evals"], ["cached"], ["time_ms"]. Errors are
    responses, never crashes. Only complete outcomes enter the response
    cache, and no wall-clock-derived value enters the cache key or the
    cached body, so a cached repeat replays the original search payload
    byte-identically with only ["cached"]/["time_ms"] fresh — and a
    cached answer is never a previously degraded one.

    {b Slow log & sampling} (DESIGN.md §12): every search request lands
    in a bounded ring of request records (id, fingerprint, status, wall
    time, per-phase breakdown, cache hit). A request is {e slow} when its
    wall time reaches [slow_ms] or its status is not [ok]; the newest
    slow records appear in the status snapshot. When [trace_out] is set,
    spans are captured per request and {e retained} by
    {!Itf_obs.Tracer.head_keep} on the request fingerprint
    ([sample_rate]) — deterministic, so reruns keep the same traces —
    with slow requests always retained (tail-based keep); retained
    requests also carry a self-time profile ({!Itf_obs.Profile}) in
    their ring record. A retained request's span lines are appended to
    the trace file and flushed before its response is written, with ids
    continuing across requests, so the file always holds whole lines
    and [loopt report] links every child to its parent. The server
    keeps no span tree once it is written: the trace costs time linear
    in its lines and no heap that grows with it. *)

type t
(** Server state: scheduler (admission queue + worker pool), response
    cache, metrics registry, output files, request ring. *)

val default_max_cache : int
(** Default response-cache capacity (entries). *)

val default_slow_ms : float
(** Default slow-request threshold (milliseconds). *)

val default_workers : int
(** Default worker count ([1] — serialized, responses in request
    order). *)

val default_queue_depth : int
(** Default admission-queue capacity; searches beyond it are shed as
    [status = "overloaded"]. *)

val create :
  ?domains:int ->
  ?default_deadline_ms:float ->
  ?max_cache:int ->
  ?metrics_out:string ->
  ?trace_out:string ->
  ?slow_ms:float ->
  ?sample_rate:float ->
  ?workers:int ->
  ?queue_depth:int ->
  unit ->
  t
(** [create ()] builds a server. [domains] is passed to every
    {!Itf_opt.Engine.search}; [default_deadline_ms] applies to requests
    that carry no ["deadline_ms"] of their own; [max_cache] (default
    {!default_max_cache}, [0] disables caching) bounds the LRU response
    cache; [metrics_out] names a file rewritten whole after every
    request with the {!Itf_obs.Metrics} dump, and [trace_out] one each
    retained request's span lines are appended to. Both files are
    created (truncated) here, and a path that cannot be opened raises
    [Sys_error] naming it; a write error after that is reported on
    stderr once for that file, which is then not written further, and
    never costs a response. [slow_ms] (default {!default_slow_ms}) sets the slow-log
    threshold; [sample_rate] (default [1.] — keep everything) the
    deterministic head-sampling rate for trace retention. The
    request ring keeps the last 128 requests. [workers] (default
    {!default_workers}, clamped to [>= 1]) bounds how many requests run
    concurrently; [queue_depth] (default {!default_queue_depth}) bounds
    how many admitted searches may wait before new ones are shed. *)

val metrics : t -> Itf_obs.Metrics.t
(** The server's metrics registry (shared with every search it runs). *)

val handle_line : t -> string -> Itf_obs.Json.t * bool
(** [handle_line t line] answers one JSONL request synchronously: the
    request is admitted through the scheduler like any other (a cache
    hit found by text is answered on the calling thread), and the call
    blocks until its response lands. Returns the response value and
    whether the request asked the server to stop. Never raises —
    malformed input and engine failures become [status = "error"]
    responses. Safe to call from several threads at once (the
    concurrency tests do). Exposed for tests and simple embedding;
    {!run} pipelines requests instead of blocking per line. *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** [serve_channel t ic oc] serves one pipelined channel until EOF or a
    shutdown request, then waits for every response it owes. The reader
    admits each line as it arrives and answers a cache hit found by text
    itself, but only when the channel owes no earlier response;
    otherwise the hit queues behind it. Every other answer the reader
    makes itself (malformed JSON or search, unknown op, shed search)
    passes one gate: written at once when nothing is owed, otherwise
    after the reader has waited for the owed responses, so it never
    enters the scheduler queue. Shutdown waits for the queue to drain.
    Responses are written under a per-channel lock, so with
    [workers = 1] they come back in request order. A line longer than
    1 MiB is read to its end without being held, and answered with one
    [status = "error"] response that names the cap, counted and
    ring-recorded like malformed JSON. {!run} calls it on stdin/stdout
    and on each socket connection. *)

val run : ?socket:string -> t -> unit
(** [run t] serves stdin/stdout until EOF or a shutdown request; with
    [socket], also listens on that Unix-domain socket path (removed and
    re-created), one thread per connection. Requests are pipelined: the
    reader admits them as they arrive and responses are written in
    completion order under a per-channel lock. Drains in-flight
    requests, then closes the listener and live connections on the way
    out and writes the final metrics dump. *)
