(* loopt serve — a long-running search service over JSONL.

   One request per line on stdin (responses on stdout) and, optionally, on
   a Unix-domain socket with one thread per connection. Requests no longer
   serialize through a global lock: a real scheduler (below) admits them
   into a bounded FIFO queue and a fixed-size pool of worker domains runs
   up to [workers] searches truly in parallel. What makes that safe is the
   layering underneath — the hash-cons intern tables and objective memos
   are sharded and safe for concurrent interning (Itf_mat.Hashcons), the
   engine keeps all per-search mutable state local to the search call,
   and the metrics registry is atomic — and what keeps it
   {e honest} is determinism: the engine's orders are structural and the
   memoized objectives return bit-identical floats no matter which worker
   warmed them, so the payload for a given request is byte-identical
   whether the server runs one worker or eight, cold or warm (DESIGN.md
   §13). The point of the daemon is unchanged: consecutive requests share
   the process-wide tables, so a repeated search costs a table probe per
   candidate instead of a simulation. On top sits a bounded LRU response
   cache keyed on the request fingerprint (search configuration +
   interned nest id, id and budget excluded): an identical request is
   answered without running the engine at all. Only [Complete] outcomes
   are cached — a degraded answer is an artifact of one request's
   deadline, not a fact about the nest — so cache hits never launder a
   cut search into an "ok".

   Most of a daemon's traffic repeats a request it has already answered,
   so a hit does not wait for a worker either. The cache keeps a
   spelling index from a request's text key (the fingerprint with the
   nest source text in place of its id) to the fingerprint; the thread
   that read the line probes it and, on a hit, answers there: no queue,
   no shedding, no queue wait, no nest parse. It does so only when its
   channel owes no earlier response, so with one worker a channel's
   responses keep their request order; otherwise the hit queues as a
   miss does. The worker still parses, fingerprints and probes, so a
   respelled nest or a pipelined duplicate hits there, and it records
   the spelling on every canonical hit and complete insert. The index
   holds at most the cache's capacity and is cleared when full.

   A hit pays only for what changes between repeats. An entry keeps its
   body's fields rendered once, when it is stored, and a hit (the
   reader's by text or the worker's canonical one) writes
   [{"id": <id>, <stored fields>, "cached": true, "time_ms": <t>}],
   the bytes [Json.to_string] of the whole response would write,
   rendering only its id and its time. The request on the way in is
   read with the channel's own newline scan, its object's fields are
   gathered in one pass, and its text key is built in one buffer.

   The scheduler's contract under load: when [queue_depth] searches are
   already waiting, a new search is {e shed} with [status = "overloaded"]
   instead of stalling the client; a request whose deadline expires while
   it waits in the queue returns [status = "degraded"] with
   [cut = "queue:deadline"] without running the engine at all (and is
   never cached); introspection ops are exempt from shedding — they are
   cheap, bounded, and exactly what an operator needs during overload.
   Per-request isolation: a malformed request is answered inline by the
   submitting thread and an engine exception becomes that request's
   error response — neither can take down a worker or block the queue.

   Live introspection (DESIGN.md §12): every search-shaped request is
   recorded in a bounded ring of request records (status, wall time,
   per-phase breakdown from the engine stats, cache hit), its latency
   observed into a [serve.request_us] histogram; the scheduler feeds
   [serve.queue.depth], [serve.queue.wait_ms], [serve.workers.busy] and
   the [serve.queue.shed] counter; [serve.queue.wait_ms] counts queued
   jobs only, so hits answered by the reader are not in it.
   [{"op": "status"}] snapshots uptime,
   request counters, latency quantiles, the queue and worker gauges, the
   phase breakdown, cache and intern-table health, process memory and
   the recent slow requests, and [{"op": "metrics"}] exposes the whole
   registry as Prometheus text. Span traces are captured per request
   and retained by a deterministic head-sampling decision on the
   fingerprint ([--sample-rate]) with a tail-based override: slow
   (>= [--slow-ms]), degraded and error requests keep their span tree
   even when head-sampled out. *)

module Json = Itf_obs.Json
module Metrics = Itf_obs.Metrics
module Tracer = Itf_obs.Tracer
module Profile = Itf_obs.Profile
module Engine = Itf_opt.Engine
module Pool = Itf_opt.Pool
module Request = Itf_opt.Request
module Stats = Itf_opt.Stats
module Sequence = Itf_core.Sequence

(* ------------------------------------------------------------------ *)
(* Bounded LRU response cache                                          *)
(* ------------------------------------------------------------------ *)

(* A complete answer as the cache keeps it: the response body's fields,
   and the same fields rendered once, when it is stored, exactly as
   [Json.to_string] writes them between an object's braces. A hit
   writes these bytes between its own ["id"] and its ["cached"] and
   ["time_ms"] fields. *)
type entry = { body : (string * Json.t) list; fields : string }

let entry body =
  let s = Json.to_string (Json.Obj body) in
  { body; fields = String.sub s 1 (String.length s - 2) }

module Lru = struct
  (* Capacity is small (default {!default_max_cache}), so recency is a
     per-entry stamp and eviction an O(cap) scan — no intrusive list.

     Explicitly thread-safe: one mutex per cache guards every operation —
     probe, insert, the eviction scan, the counter snapshot. Under the
     old design the global search lock covered it; now concurrent workers
     hit it directly, and the single mutex guarantees the tick/stamp
     bookkeeping never tears and the hit/miss/eviction counters never
     lose an update (the concurrency tests assert exact totals).

     The spelling index maps a request's text key ({!text_key}) to the
     fingerprint its nest was answered under, so an exact repeat of a
     request's text is found without parsing its nest. It holds at most
     [cap] spellings and is cleared when full. A spelling never goes
     stale in a harmful way: nest ids are never reused (Itf_ir.Intern),
     so the fingerprint it names can only name the same nest, and once
     that entry is evicted the spelling simply finds nothing. *)
  type t = {
    tbl : (string, entry * int ref) Hashtbl.t;
    spellings : (string, string) Hashtbl.t;
    cap : int;
    mutex : Mutex.t;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  (* A consistent snapshot: read under one lock acquisition, so it never
     mixes counters from different moments. *)
  type counters = {
    hits : int;
    misses : int;
    evictions : int;
    size : int;
    spellings : int;
  }

  let create cap =
    {
      tbl = Hashtbl.create 64;
      spellings = Hashtbl.create 64;
      cap = max 0 cap;
      mutex = Mutex.create ();
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  (* The helpers below run with [t.mutex] held. *)
  let snapshot (t : t) =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      size = Hashtbl.length t.tbl;
      spellings = Hashtbl.length t.spellings;
    }

  let remember (t : t) spelling key =
    if
      (not (Hashtbl.mem t.spellings spelling))
      && Hashtbl.length t.spellings >= t.cap
    then Hashtbl.clear t.spellings;
    Hashtbl.replace t.spellings spelling key

  let touch (t : t) stamp =
    t.tick <- t.tick + 1;
    stamp := t.tick;
    t.hits <- t.hits + 1

  (* The canonical probe: counts one hit or one miss, and a hit records
     [spelling] as a way to find [key]. *)
  let find (t : t) ?spelling key =
    Mutex.protect t.mutex (fun () ->
        let found =
          match Hashtbl.find_opt t.tbl key with
          | Some (v, stamp) ->
            touch t stamp;
            Option.iter (fun s -> remember t s key) spelling;
            Some v
          | None ->
            t.misses <- t.misses + 1;
            None
        in
        (found, snapshot t))

  (* The probe by text: a hit counts like a canonical hit; finding
     nothing counts nothing, since the request then goes on to the
     canonical probe. *)
  let find_spelling (t : t) spelling =
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.spellings spelling with
        | None -> None
        | Some key -> (
          match Hashtbl.find_opt t.tbl key with
          | None -> None
          | Some (v, stamp) ->
            touch t stamp;
            Some (key, v, snapshot t)))

  let add (t : t) ?spelling key v =
    Mutex.protect t.mutex (fun () ->
        if t.cap > 0 then begin
          if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.cap
          then begin
            let victim =
              Hashtbl.fold
                (fun k (_, stamp) acc ->
                  match acc with
                  | Some (_, oldest) when oldest <= !stamp -> acc
                  | _ -> Some (k, !stamp))
                t.tbl None
            in
            match victim with
            | Some (k, _) ->
              Hashtbl.remove t.tbl k;
              t.evictions <- t.evictions + 1
            | None -> ()
          end;
          t.tick <- t.tick + 1;
          Hashtbl.replace t.tbl key (v, ref t.tick);
          Option.iter (fun s -> remember t s key) spelling
        end;
        snapshot t)

  let counters t = Mutex.protect t.mutex (fun () -> snapshot t)
end

(* ------------------------------------------------------------------ *)
(* Recent-request ring buffer                                          *)
(* ------------------------------------------------------------------ *)

(* One completed request, as remembered by the slow log. The phase
   breakdown comes from the engine's stats record, so it is present even
   when span tracing is off or the request was head-sampled out; the
   profile rows are only filled for requests whose span tree was
   retained. *)
type req_record = {
  rq_id : Json.t;
  rq_fingerprint : string;
  rq_status : string;
  rq_wall_us : float;
  rq_cached : bool;
  rq_phases_us : (string * float) list;
  rq_profile : Profile.row list;
}

module Ring = struct
  (* Thread-safe like {!Lru}: a single mutex serializes pushes (which
     mutate the cursor and the total) and snapshots, so concurrent
     workers never drop a record or read a half-advanced cursor. *)
  type t = {
    slots : req_record option array;
    mutex : Mutex.t;
    mutable next : int;
    mutable total : int;
  }

  let create cap =
    {
      slots = Array.make (max 1 cap) None;
      mutex = Mutex.create ();
      next = 0;
      total = 0;
    }

  let push t x =
    Mutex.protect t.mutex (fun () ->
        t.slots.(t.next) <- Some x;
        t.next <- (t.next + 1) mod Array.length t.slots;
        t.total <- t.total + 1)

  (* Newest first. *)
  let recent t =
    Mutex.protect t.mutex (fun () ->
        let n = Array.length t.slots in
        let out = ref [] in
        for k = 0 to n - 1 do
          match t.slots.((t.next + k) mod n) with
          | Some x -> out := x :: !out
          | None -> ()
        done;
        !out)
end

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request = {
  id : Json.t;  (** echoed verbatim; [Null] when absent *)
  nest_src : string;
  search : Request.t;
}

(* The fields a request object may carry, each its first binding (as
   [Json.member] finds it), gathered in one pass over the object. *)
type fields = {
  mutable f_id : Json.t option;
  mutable f_op : Json.t option;
  mutable f_nest : Json.t option;
  mutable f_objective : Json.t option;
  mutable f_params : Json.t option;
  mutable f_procs : Json.t option;
  mutable f_steps : Json.t option;
  mutable f_beam : Json.t option;
  mutable f_exact_topk : Json.t option;
  mutable f_tier0_only : Json.t option;
  mutable f_deadline_ms : Json.t option;
  mutable f_max_nodes : Json.t option;
}

let fields kvs =
  let f =
    {
      f_id = None;
      f_op = None;
      f_nest = None;
      f_objective = None;
      f_params = None;
      f_procs = None;
      f_steps = None;
      f_beam = None;
      f_exact_topk = None;
      f_tier0_only = None;
      f_deadline_ms = None;
      f_max_nodes = None;
    }
  in
  let first cur v = match cur with None -> Some v | some -> some in
  List.iter
    (fun (k, v) ->
      match k with
      | "id" -> f.f_id <- first f.f_id v
      | "op" -> f.f_op <- first f.f_op v
      | "nest" -> f.f_nest <- first f.f_nest v
      | "objective" -> f.f_objective <- first f.f_objective v
      | "params" -> f.f_params <- first f.f_params v
      | "procs" -> f.f_procs <- first f.f_procs v
      | "steps" -> f.f_steps <- first f.f_steps v
      | "beam" -> f.f_beam <- first f.f_beam v
      | "exact_topk" -> f.f_exact_topk <- first f.f_exact_topk v
      | "tier0_only" -> f.f_tier0_only <- first f.f_tier0_only v
      | "deadline_ms" -> f.f_deadline_ms <- first f.f_deadline_ms v
      | "max_nodes" -> f.f_max_nodes <- first f.f_max_nodes v
      | _ -> ())
    kvs;
  f

(* An optional typed field: absent is [None]; a value [conv] rejects is a
   named error, never a silently dropped setting. *)
let typed_field name conv ~what = function
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be %s" name what))

let int_field name ~default v =
  typed_field name Json.to_int ~what:"an integer" v
  |> Result.map (Option.value ~default)

let bool_field name ~default = function
  | None | Some Json.Null -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let params_field = function
  | None -> Ok []
  | Some (Json.Obj kvs) ->
    let rec conv acc = function
      | [] -> Ok (List.rev acc)
      | (k, v) :: rest -> (
        match Json.to_int v with
        | Some x -> conv ((k, x) :: acc) rest
        | None -> Error (Printf.sprintf "parameter %S must be an integer" k))
    in
    conv [] kvs
  | Some _ -> Error "field \"params\" must be an object of integers"

let ( let* ) = Result.bind

(* Reads each field with its type, in the order below, fills what is
   absent from {!Request.default} and the server's default deadline,
   and leaves every other rule to {!Request.check}. [f] is [None] when
   the request is not an object. *)
let parse_request ~default_deadline_ms f =
  let d = Request.default in
  match f with
  | Some f ->
    let* nest_src =
      match Option.bind f.f_nest Json.to_str with
      | Some s -> Ok s
      | None -> Error "missing required string field \"nest\""
    in
    let* objective =
      typed_field "objective" Json.to_str ~what:"a string" f.f_objective
      |> Result.map (Option.value ~default:d.objective)
    in
    let* params = params_field f.f_params in
    let* procs = int_field "procs" ~default:d.procs f.f_procs in
    let* steps = int_field "steps" ~default:d.steps f.f_steps in
    let* beam = int_field "beam" ~default:d.beam f.f_beam in
    let* exact_topk =
      int_field "exact_topk" ~default:d.exact_topk f.f_exact_topk
    in
    let* tier0_only =
      bool_field "tier0_only" ~default:d.tier0_only f.f_tier0_only
    in
    let* deadline_ms =
      typed_field "deadline_ms" Json.to_float ~what:"a number" f.f_deadline_ms
    in
    let* max_nodes =
      typed_field "max_nodes" Json.to_int ~what:"an integer" f.f_max_nodes
    in
    let search =
      {
        Request.objective;
        params;
        procs;
        steps;
        beam;
        exact_topk;
        tier0_only;
        deadline_ms =
          (if deadline_ms = None then default_deadline_ms else deadline_ms);
        max_nodes;
      }
    in
    let* () = Request.check search in
    Ok { id = Option.value ~default:Json.Null f.f_id; nest_src; search }
  | None -> Error "request must be a JSON object"

(* The fingerprint names the nest by its intern id, so textually different
   spellings of one nest share a cache entry. *)
let fingerprint req nest =
  Request.key req.search ~nest:(string_of_int (Itf_ir.Intern.nest_id nest))

(* The text key names it by its source text, so it can be built before
   the nest is parsed; the LRU's spelling index maps it to a fingerprint. *)
let text_key req = Request.key req.search ~nest:req.nest_src

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

let default_max_cache = 64
let default_slow_ms = 500.
let default_recent = 128
let default_workers = 1
let default_queue_depth = 64
let slow_log_limit = 16

(* A finished response: a value, or a cache hit, which holds the stored
   entry and renders only its own ["id"] and ["time_ms"]. *)
type response =
  | Value of Json.t
  | Hit of { id : Json.t; entry : entry; time_ms : float }

(* A search response: its id, its body's fields, whether the cache
   answered it, and its time. *)
let envelope_value id body ~cached ~time_ms =
  Json.Obj
    (("id", id)
    :: body
    @ [ ("cached", Json.Bool cached); ("time_ms", Json.Float time_ms) ])

(* The value [Json.to_string] of which is what {!write_response} writes. *)
let to_json = function
  | Value v -> v
  | Hit { id; entry; time_ms } ->
    envelope_value id entry.body ~cached:true ~time_ms

let write_response oc = function
  | Value v -> output_string oc (Json.to_string v)
  | Hit { id; entry; time_ms } ->
    output_string oc "{\"id\": ";
    output_string oc (Json.to_string id);
    output_string oc ", ";
    output_string oc entry.fields;
    output_string oc ", \"cached\": true, \"time_ms\": ";
    output_string oc (Json.to_string (Json.Float time_ms));
    output_char oc '}'

(* One admitted unit of work, waiting in the scheduler queue. [reply] is
   called exactly once with the finished response — from a worker domain
   for queued jobs, from the submitting thread for inline answers
   (malformed requests, unknown ops, cache hits found by text, shed
   requests, shutdown). *)
type job =
  | Search of {
      req : request;
      spelling : string option;
          (** the request's {!text_key}, built by the reader; [None] when
              the cache is off *)
      recv : float;  (** receipt wall clock: deadlines count queue time *)
      reply : response -> unit;
    }
  | Op of {
      op : string;
      op_id : Json.t;
      recv : float;
      reply : response -> unit;
    }

(* The instruments every request updates, resolved once in [create] so
   a request makes no registry lookup for them. *)
type instruments = {
  requests : (string * Metrics.counter) list;
      (** [serve.requests{status}] for each status a response carries *)
  shed : Metrics.counter;
  busy : Metrics.gauge;
  queue_wait : Metrics.histogram;
  queue_depth : Metrics.gauge;
  request_us : Metrics.histogram;
  cache_gauges : (Metrics.gauge * Metrics.gauge * Metrics.gauge * Metrics.gauge);
      (** size, hits, misses, evictions *)
}

let statuses = [ "ok"; "degraded"; "error"; "overloaded" ]

let instruments metrics =
  let gauge name = Metrics.gauge metrics name in
  {
    requests =
      List.map
        (fun s ->
          (s, Metrics.counter metrics ~labels:[ ("status", s) ] "serve.requests"))
        statuses;
    shed = Metrics.counter metrics "serve.queue.shed";
    busy = gauge "serve.workers.busy";
    queue_wait =
      Metrics.histogram metrics ~buckets:Metrics.duration_buckets
        "serve.queue.wait_ms";
    queue_depth = gauge "serve.queue.depth";
    request_us =
      Metrics.histogram metrics ~buckets:Metrics.duration_buckets
        "serve.request_us";
    cache_gauges =
      ( gauge "serve.cache.size",
        gauge "serve.cache.hits",
        gauge "serve.cache.misses",
        gauge "serve.cache.evictions" );
  }

type t = {
  domains : int option;
  default_deadline_ms : float option;
  cache : Lru.t;
  metrics : Metrics.t;
  inst : instruments;
  tracer : Tracer.t;  (** accumulates the {e retained} request span trees *)
  metrics_out : string option;
  trace_out : string option;
  slow_ms : float;
  sample_rate : float;
  started : float;
  recent : Ring.t;
  obs_lock : Mutex.t;
      (** guards the observability sinks only: the retained-trace forest
          and the metrics/trace output files. Searches do NOT serialize
          through it. *)
  clients : (Unix.file_descr list ref * Mutex.t);
  (* Scheduler state: a bounded FIFO of admitted jobs, executed by up to
     [workers] concurrent pump loops on the shared domain pool. [sched]
     guards the queue and both counts; [sched_idle] is broadcast when the
     scheduler goes fully idle (shutdown drains on it). *)
  workers : int;
  queue_depth : int;
  pool : Pool.t;
  sched : Mutex.t;
  sched_idle : Condition.t;
  jobs : job Queue.t;
  mutable queued : int;  (** jobs waiting (excludes running) *)
  mutable running : int;  (** active pump loops, <= workers *)
  mutable stopping : bool;
}

let create ?domains ?default_deadline_ms ?(max_cache = default_max_cache)
    ?metrics_out ?trace_out ?(slow_ms = default_slow_ms) ?(sample_rate = 1.)
    ?(workers = default_workers) ?(queue_depth = default_queue_depth) () =
  let workers = max 1 workers in
  let metrics = Metrics.create () in
  Metrics.set (Metrics.gauge metrics "serve.workers") (float_of_int workers);
  {
    domains;
    default_deadline_ms;
    cache = Lru.create max_cache;
    metrics;
    inst = instruments metrics;
    tracer = (if trace_out = None then Tracer.null else Tracer.create ());
    metrics_out;
    trace_out;
    slow_ms;
    sample_rate;
    started = Unix.gettimeofday ();
    recent = Ring.create default_recent;
    obs_lock = Mutex.create ();
    clients = (ref [], Mutex.create ());
    workers;
    queue_depth = max 0 queue_depth;
    (* The process-wide pool (grown, never shrunk) supplies the worker
       domains; the scheduler bounds {e this server's} concurrency to
       [workers] itself, so sharing the pool with other servers or with
       the engine's candidate fan-out cannot over-admit. *)
    pool = Pool.shared ~workers ();
    sched = Mutex.create ();
    sched_idle = Condition.create ();
    jobs = Queue.create ();
    queued = 0;
    running = 0;
    stopping = false;
  }

let metrics t = t.metrics

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)
(* ------------------------------------------------------------------ *)

let error_response ?(id = Json.Null) msg =
  Json.Obj
    [ ("id", id); ("status", Json.String "error"); ("error", Json.String msg) ]

let render_sequence seq =
  if seq = [] then "identity" else Format.asprintf "%a" Sequence.pp seq

let requests_counter t status =
  match List.assoc_opt status t.inst.requests with
  | Some c -> c
  | None ->
    Metrics.counter t.metrics ~labels:[ ("status", status) ] "serve.requests"

let count_request t status = Metrics.incr (requests_counter t status)

let publish_cache_gauges t (c : Lru.counters) =
  let g_size, g_hits, g_misses, g_evictions = t.inst.cache_gauges in
  let g gauge v = Metrics.set gauge (float_of_int v) in
  g g_size c.size;
  g g_hits c.hits;
  g g_misses c.misses;
  g g_evictions c.evictions

(* Process memory in MB (10^6 bytes): the major heap now and at its peak.
   [Gc.quick_stat] reads the runtime's counters without collecting, so no
   request ever pays for a major collection. *)
let memory_mb () =
  let s = Gc.quick_stat () in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  (mb s.Gc.heap_words, mb s.Gc.top_heap_words)

let publish_memory_gauges t =
  let heap, top = memory_mb () in
  Metrics.set (Metrics.gauge t.metrics "gc.heap_mb") heap;
  Metrics.set (Metrics.gauge t.metrics "gc.top_heap_mb") top

(* Caller must hold [t.sched]. *)
let publish_queue_gauge t =
  Metrics.set t.inst.queue_depth (float_of_int t.queued)

let write_text_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Rewritten whole after every request so an external observer (the CI
   smoke test, an operator's tail loop) always sees a complete JSON
   document, not a moving append point. Callers hold [t.obs_lock] so two
   workers never interleave partial writes of the same file. *)
let flush_observability t =
  (match t.metrics_out with
  | None -> ()
  | Some path ->
    Engine.record_tables t.metrics;
    publish_cache_gauges t (Lru.counters t.cache);
    write_text_file path (Json.to_string (Metrics.dump t.metrics) ^ "\n"));
  match t.trace_out with
  | None -> ()
  | Some path ->
    write_text_file path
      (String.concat "\n" (Tracer.jsonl_lines (Tracer.roots t.tracer)) ^ "\n")

(* ------------------------------------------------------------------ *)
(* Search execution                                                    *)
(* ------------------------------------------------------------------ *)

(* The worker's path: parse, fingerprint, probe, search. A canonical hit
   or a complete insert also records [spelling], so the next exact repeat
   of this text is answered by the reader. *)
let search_response t ~tracer req ~spelling ~t_recv =
  match Itf_lang.Parser.parse req.nest_src with
  | exception Itf_lang.Parser.Error { line; message } ->
    Error (Printf.sprintf "nest:%d: %s" line message)
  | prog -> (
    let nest = prog.Itf_lang.Parser.nest in
    let key = fingerprint req nest in
    match Lru.find t.cache ?spelling key with
    | Some cached, counters -> Ok (`Cached (cached, key, counters))
    | None, counters ->
      (* The deadline is measured from receipt, so time spent queued
         behind other requests counts against it — a late search is cut
         shorter, not granted a fresh allowance. *)
      let outcome =
        Tracer.span tracer "serve.request"
          ~attrs:(fun () ->
            [
              ("id", Tracer.String (Json.to_string req.id));
              ("fingerprint", Tracer.String key);
            ])
          (fun () ->
            Request.run ?domains:t.domains ~tracer ~metrics:t.metrics
              ~since:t_recv req.search nest)
      in
      (match outcome with
      | None -> Error "nest could not be scored"
      | Some o ->
        let status = Engine.completion_label o.Engine.completion in
        let body =
          [
            ("status", Json.String status);
            ("score", Json.Float o.Engine.score);
            ("sequence", Json.String (render_sequence o.Engine.sequence));
            ("canonical", Json.String (render_sequence o.Engine.canonical));
            ( "explored",
              Json.Int o.Engine.stats.Itf_opt.Stats.nodes_explored );
            ( "exact_evals",
              Json.Int o.Engine.stats.Itf_opt.Stats.objective_evaluations );
          ]
          @
          match o.Engine.completion with
          | Engine.Complete -> []
          | Engine.Degraded { cut } -> [ ("cut", Json.String cut) ]
        in
        (* Two workers finishing the same (uncached) request race the
           insert, but determinism makes the race write-write-identical:
           both computed the same body, either store wins. *)
        let counters =
          if o.Engine.completion = Engine.Complete then
            Lru.add t.cache ?spelling key (entry body)
          else counters
        in
        Ok (`Fresh (body, key, o.Engine.stats, counters))))

(* ------------------------------------------------------------------ *)
(* Introspection ops                                                   *)
(* ------------------------------------------------------------------ *)

let record_json r =
  Json.Obj
    ([
       ("id", r.rq_id);
       ("fingerprint", Json.String r.rq_fingerprint);
       ("status", Json.String r.rq_status);
       ("wall_us", Json.Float r.rq_wall_us);
       ("cached", Json.Bool r.rq_cached);
       ( "phases_us",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.rq_phases_us)
       );
     ]
    @
    if r.rq_profile = [] then []
    else [ ("profile", Profile.to_json (Profile.top 8 r.rq_profile)) ])

let is_slow t r = r.rq_status <> "ok" || r.rq_wall_us >= t.slow_ms *. 1000.

(* The status snapshot. Every structure it reads is self-synchronized
   (atomic instruments, the ring's and cache's own mutexes, the scheduler
   lock for the queue counts); every number is either an integer counter
   or derived from integer bucket counts, so two servers fed the same
   requests report the same snapshot modulo the wall-clock fields and the
   instantaneous queue/worker levels. *)
let status_snapshot t ~id =
  let now = Unix.gettimeofday () in
  let cnt s = Metrics.counter_value (requests_counter t s) in
  let ok = cnt "ok" and degraded = cnt "degraded" and errors = cnt "error" in
  let overloaded = cnt "overloaded" in
  let lat = t.inst.request_us in
  let lat_count = Metrics.histogram_count lat in
  let q p = Option.value ~default:0. (Metrics.quantile lat p) in
  let wait = t.inst.queue_wait in
  let wq p = Option.value ~default:0. (Metrics.quantile wait p) in
  let slow =
    List.filteri
      (fun k _ -> k < slow_log_limit)
      (List.filter (is_slow t) (Ring.recent t.recent))
  in
  let intern =
    List.map
      (fun s ->
        Json.Obj
          [
            ("table", Json.String s.Itf_mat.Hashcons.name);
            ("size", Json.Int s.Itf_mat.Hashcons.size);
            ("hits", Json.Int s.Itf_mat.Hashcons.hits);
            ("misses", Json.Int s.Itf_mat.Hashcons.misses);
            ("evictions", Json.Int s.Itf_mat.Hashcons.evictions);
          ])
      (Itf_mat.Hashcons.stats ())
  in
  let queued = Mutex.protect t.sched (fun () -> t.queued) in
  let heap_mb, top_heap_mb = memory_mb () in
  let cache = Lru.counters t.cache in
  Json.Obj
    ([
      ("id", id);
      ("status", Json.String "ok");
      ("uptime_s", Json.Float (now -. t.started));
      ( "requests",
        Json.Obj
          [
            ("ok", Json.Int ok);
            ("degraded", Json.Int degraded);
            ("error", Json.Int errors);
            ("overloaded", Json.Int overloaded);
            ("total", Json.Int (ok + degraded + errors + overloaded));
          ] );
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int queued);
            ("capacity", Json.Int t.queue_depth);
            ( "shed",
              Json.Int (Metrics.counter_value t.inst.shed) );
            ("wait_ms_p50", Json.Float (wq 0.5));
            ("wait_ms_p99", Json.Float (wq 0.99));
          ] );
      ( "workers",
        Json.Obj
          [
            ("configured", Json.Int t.workers);
            ( "busy",
              Json.Int (int_of_float (Metrics.gauge_value t.inst.busy)) );
          ] );
      ( "latency_us",
        Json.Obj
          [
            ("count", Json.Int lat_count);
            ("sum", Json.Float (Metrics.histogram_sum lat));
            ( "mean",
              Json.Float
                (if lat_count = 0 then 0.
                 else Metrics.histogram_sum lat /. float_of_int lat_count) );
            ("p50", Json.Float (q 0.5));
            ("p90", Json.Float (q 0.9));
            ("p99", Json.Float (q 0.99));
          ] );
    ]
    @ Stats.status t.metrics
    @ [
      ( "cache",
        Json.Obj
          [
            ("size", Json.Int cache.size);
            ("capacity", Json.Int t.cache.cap);
            ("hits", Json.Int cache.hits);
            ("misses", Json.Int cache.misses);
            ("evictions", Json.Int cache.evictions);
            ("spellings", Json.Int cache.spellings);
          ] );
      ("intern", Json.List intern);
      ( "memory",
        Json.Obj
          [ ("heap_mb", Json.Float heap_mb); ("top_heap_mb", Json.Float top_heap_mb) ]
      );
      ("slow_ms", Json.Float t.slow_ms);
      ("sample_rate", Json.Float t.sample_rate);
      ("slow", Json.List (List.map record_json slow));
    ])

let metrics_snapshot t ~id =
  publish_memory_gauges t;
  publish_cache_gauges t (Lru.counters t.cache);
  Engine.record_tables t.metrics;
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "ok");
      ("content_type", Json.String "text/plain; version=0.0.4");
      ("metrics", Json.String (Metrics.dump_prometheus t.metrics));
    ]

(* ------------------------------------------------------------------ *)
(* Request recording                                                   *)
(* ------------------------------------------------------------------ *)

(* Count, time, ring-record and (when a tracer captured spans) retain one
   finished search-shaped request. Runs on whichever thread produced the
   response — a worker domain for executed searches, the submitting
   thread for inline answers (parse errors, cache hits found by text,
   shed requests). Everything
   here is either atomic or internally locked; only the trace forest and
   the output files need [obs_lock]. *)
let record_request t ?(fp = "") ?(cached = false) ?(phases = []) ?counters
    ?(rt = Tracer.null) ~req_id ~t_recv resp =
  let status =
    match resp with
    | Hit _ -> "ok"
    | Value v -> (
      match Json.member "status" v with
      | Some (Json.String s) -> s
      | _ -> "error")
  in
  let wall_us = (Unix.gettimeofday () -. t_recv) *. 1e6 in
  let record =
    {
      rq_id = req_id;
      rq_fingerprint = fp;
      rq_status = status;
      rq_wall_us = wall_us;
      rq_cached = cached;
      rq_phases_us = phases;
      rq_profile = [];
    }
  in
  (* Head sampling is decided by the fingerprint alone, so reruns of the
     same request stream retain the same traces; the tail condition
     overrides it for anything worth a post-mortem. Capture already
     happened either way — sampling only chooses retention, so the kept
     span trees are unaffected by the rate. *)
  let retained =
    Tracer.enabled rt
    && (is_slow t record
       || Tracer.head_keep ~sample_rate:t.sample_rate ~fingerprint:fp)
  in
  let record =
    if retained then
      { record with rq_profile = Profile.of_spans (Tracer.roots rt) }
    else record
  in
  count_request t status;
  Metrics.observe t.inst.request_us wall_us;
  Ring.push t.recent record;
  Option.iter (publish_cache_gauges t) counters;
  Mutex.protect t.obs_lock (fun () ->
      if retained then Tracer.join t.tracer [ rt ];
      flush_observability t)

let elapsed_ms ~t_recv = (Unix.gettimeofday () -. t_recv) *. 1000.

(* A response that is not a hit: the [body] fields between the id and the
   [cached] and [time_ms] fields. *)
let envelope req ~t_recv body =
  Value
    (envelope_value req.id body ~cached:false ~time_ms:(elapsed_ms ~t_recv))

(* A cache hit's response, built and recorded in one place for both the
   reader's hit by text and the worker's canonical hit, so the two answer
   and count alike. [counters] are the ones the probe read. The stored
   entry is written as it was rendered at insert; only the id and the
   time are new. *)
let answer_hit t req ~t_recv ~fp counters entry =
  let resp = Hit { id = req.id; entry; time_ms = elapsed_ms ~t_recv } in
  record_request t ~fp ~cached:true ~counters ~req_id:req.id ~t_recv resp;
  resp

let expired req ~t_recv =
  match req.search.deadline_ms with
  | Some ms -> elapsed_ms ~t_recv >= ms
  | None -> false

(* Execute one admitted search on a worker. The queue-aware deadline
   check comes first: a request whose whole allowance was eaten while it
   waited returns [Degraded {cut = "queue:deadline"}] without touching
   the engine — and is never cached, exactly like any other degraded
   answer. *)
let exec_search t req ~spelling ~t_recv =
  if expired req ~t_recv then begin
    let resp =
      envelope req ~t_recv
        [
          ("status", Json.String "degraded");
          ("cut", Json.String "queue:deadline");
        ]
    in
    record_request t ~req_id:req.id ~t_recv resp;
    resp
  end
  else begin
    (* Span capture is per request: a fresh tracer when the tracing sink
       is configured, spliced into the retained forest only if the
       head-sampling draw keeps it or the tail condition fires. *)
    let rt = if t.trace_out = None then Tracer.null else Tracer.create () in
    let failed msg =
      let resp = Value (error_response ~id:req.id msg) in
      record_request t ~rt ~req_id:req.id ~t_recv resp;
      resp
    in
    match search_response t ~tracer:rt req ~spelling ~t_recv with
    | Ok (`Cached (entry, fp, counters)) ->
      answer_hit t req ~t_recv ~fp counters entry
    | Ok (`Fresh (body, fp, stats, counters)) ->
      let phases =
        List.map (fun (p, s) -> (p, s *. 1e6)) (Stats.phases stats)
      in
      let resp = envelope req ~t_recv body in
      record_request t ~fp ~phases ~counters ~rt ~req_id:req.id ~t_recv resp;
      resp
    | Error msg -> failed msg
    | exception e -> failed ("internal error: " ^ Printexc.to_string e)
  end

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let run_job t job =
  let observe_wait recv =
    Metrics.observe t.inst.queue_wait ((Unix.gettimeofday () -. recv) *. 1000.)
  in
  match job with
  | Op { op; op_id; recv; reply } ->
    observe_wait recv;
    let resp =
      match op with
      | "status" -> status_snapshot t ~id:op_id
      | _ -> metrics_snapshot t ~id:op_id
    in
    count_request t "ok";
    Mutex.protect t.obs_lock (fun () -> flush_observability t);
    reply (Value resp)
  | Search { req; spelling; recv; reply } ->
    observe_wait recv;
    reply (exec_search t req ~spelling ~t_recv:recv)

(* One pump loop: drain the server's queue until it is empty, then
   release the worker slot. Short-lived by design — pump jobs occupy a
   shared-pool domain only while this server actually has work, so many
   servers (and the engine's own candidate fan-out) can share one pool
   without parking threads on each other. *)
let rec pump t =
  let job =
    Mutex.protect t.sched (fun () ->
        match Queue.take_opt t.jobs with
        | None ->
          t.running <- t.running - 1;
          if t.running = 0 && t.queued = 0 then
            Condition.broadcast t.sched_idle;
          None
        | Some j ->
          t.queued <- t.queued - 1;
          publish_queue_gauge t;
          Some j)
  in
  match job with
  | None -> ()
  | Some job ->
    Metrics.gauge_add t.inst.busy 1.;
    (* Per-request isolation: [run_job] already converts engine failures
       into error responses; this catch-all is the last line keeping an
       unexpected exception from killing a shared pool worker. *)
    (try run_job t job with _ -> ());
    Metrics.gauge_add t.inst.busy (-1.);
    pump t

(* Admission. Introspection ops are always admitted — they are cheap,
   bounded and exactly what an operator needs during overload; searches
   are shed once [queue_depth] jobs are already waiting. Queued ops count
   as waiting, so a shed reports the count it saw, which may exceed the
   capacity. Admitting a job tops the pump loops up to [workers], which
   bounds this server's concurrency regardless of how large the shared
   pool has grown. *)
let enqueue t job =
  Mutex.protect t.sched (fun () ->
      let sheddable = match job with Search _ -> true | Op _ -> false in
      if sheddable && t.queued >= t.queue_depth then `Shed t.queued
      else begin
        Queue.push job t.jobs;
        t.queued <- t.queued + 1;
        publish_queue_gauge t;
        if t.running < t.workers then begin
          t.running <- t.running + 1;
          Pool.submit t.pool (fun () -> pump t)
        end;
        `Queued
      end)

(* Block until the scheduler is fully idle: no queued jobs, no running
   pump. Invariant: whenever the queue is non-empty at least one pump is
   running (enqueue tops the slots up under the same lock), so this
   always terminates once clients stop submitting. *)
let drain t =
  Mutex.protect t.sched (fun () ->
      while t.queued > 0 || t.running > 0 do
        Condition.wait t.sched_idle t.sched
      done)

(* ------------------------------------------------------------------ *)
(* Handling                                                            *)
(* ------------------------------------------------------------------ *)

(* The one ordering gate for an answer the reader made itself (malformed
   JSON or search, unknown op, shed search): when the caller's channel
   owes earlier responses, [wait_turn] blocks the reader until they are
   written, so the answer keeps its place in the channel's request order
   and a client that pipelines junk behind a slow search is slowed by its
   own backlog, never queued at the scheduler. *)
let answer_inline ?(wait_turn = ignore) k resp =
  wait_turn ();
  k (Value resp, false)

(* [submit t json k] classifies one decoded request and calls [k] exactly
   once with (response, stop). Inline paths — unknown op, malformed
   search, cache hit found by text, shed search, shutdown — make their
   answer on the calling thread; admitted jobs reply later from a worker
   domain. [wait_turn], given when the caller's channel still owes an
   earlier response, blocks until the channel owes only this one: an
   inline answer waits on it ({!answer_inline}), a hit queues as a miss
   does, and shutdown drains the queue first, so with one worker a
   channel's responses keep their request order. Never raises: any error
   becomes a [status = "error"] response. *)
let submit t ?wait_turn json k =
  let t_recv = Unix.gettimeofday () in
  let f = match json with Json.Obj kvs -> Some (fields kvs) | _ -> None in
  let id = Option.bind f (fun f -> f.f_id) in
  let req_id () = Option.value ~default:Json.Null id in
  let op =
    match Option.bind f (fun f -> f.f_op) with
    | Some (Json.String s) -> Some s
    | Some _ -> Some ""
    | None -> None
  in
  match op with
  | Some "shutdown" ->
    (* Stop, but answer everything already admitted first: the drain
       waits for the queue and every running worker, so the shutdown
       response is always the last one out. *)
    t.stopping <- true;
    drain t;
    count_request t "ok";
    k
      ( Value
          (Json.Obj
             [
               ("id", req_id ());
               ("status", Json.String "ok");
               ("shutdown", Json.Bool true);
             ]),
        true )
  | Some (("status" | "metrics") as opname) ->
    let job =
      Op
        {
          op = opname;
          op_id = req_id ();
          recv = t_recv;
          reply = (fun resp -> k (resp, false));
        }
    in
    (match enqueue t job with
    | `Queued -> ()
    | `Shed _ -> assert false (* ops are never shed *))
  | Some other ->
    let resp =
      error_response ~id:(req_id ())
        (Printf.sprintf "unknown op %S (use status|metrics|shutdown)" other)
    in
    count_request t "error";
    Mutex.protect t.obs_lock (fun () -> flush_observability t);
    answer_inline ?wait_turn k resp
  | None -> (
    match parse_request ~default_deadline_ms:t.default_deadline_ms f with
    | Error msg ->
      (* Malformed searches never occupy a worker: answered inline, but
         still counted and ring-recorded like any other request. *)
      let resp = error_response ?id msg in
      record_request t ~req_id:(req_id ()) ~t_recv (Value resp);
      answer_inline ?wait_turn k resp
    | Ok req -> (
      let spelling =
        if t.cache.cap > 0 then Some (text_key req) else None
      in
      (* A request whose deadline has already run out queues like any
         other, so the worker answers it [queue:deadline] as before. *)
      let hit =
        match spelling with
        | Some s
          when Option.is_none wait_turn
               && not (expired req ~t_recv) ->
          Lru.find_spelling t.cache s
        | _ -> None
      in
      match hit with
      | Some (fp, entry, counters) ->
        (* Answered by the reader: never queued, never shed, no queue
           wait, no nest parse. *)
        k (answer_hit t req ~t_recv ~fp counters entry, false)
      | None -> (
        let job =
          Search
            {
              req;
              spelling;
              recv = t_recv;
              reply = (fun resp -> k (resp, false));
            }
        in
        match enqueue t job with
        | `Queued -> ()
        | `Shed waiting ->
          Metrics.incr t.inst.shed;
          let resp =
            Json.Obj
              [
                ("id", req.id);
                ("status", Json.String "overloaded");
                ( "error",
                  Json.String
                    (Printf.sprintf
                       "queue full (%d waiting, capacity %d): request shed"
                       waiting t.queue_depth) );
              ]
          in
          record_request t ~req_id:req.id ~t_recv (Value resp);
          answer_inline ?wait_turn k resp)))

(* A line that is not a request (not JSON, or too long to read) is
   answered inline, and counted, timed and ring-recorded with a [Null] id
   exactly like a malformed request object. *)
let reject_line t ?wait_turn msg k =
  let t_recv = Unix.gettimeofday () in
  let resp = error_response msg in
  record_request t ~req_id:Json.Null ~t_recv (Value resp);
  answer_inline ?wait_turn k resp

(* [submit_line t line k] decodes one JSONL line and submits it. *)
let submit_line t ?wait_turn line k =
  match Json.of_string line with
  | Ok json -> submit t ?wait_turn json k
  | Error msg -> reject_line t ?wait_turn ("malformed JSON: " ^ msg) k

(* Synchronous wrapper: submit and block until the reply lands. Used by
   tests and simple embedding; the I/O loops below use [submit_line]
   directly so one slow search never stalls the reader. *)
let handle_line t line =
  let m = Mutex.create () in
  let c = Condition.create () in
  let cell = ref None in
  submit_line t line (fun reply ->
      Mutex.protect m (fun () ->
          cell := Some reply;
          Condition.signal c));
  Mutex.lock m;
  let rec wait () =
    match !cell with
    | Some r -> r
    | None ->
      Condition.wait c m;
      wait ()
  in
  let resp, stop = wait () in
  Mutex.unlock m;
  (to_json resp, stop)

(* ------------------------------------------------------------------ *)
(* I/O loops                                                           *)
(* ------------------------------------------------------------------ *)

(* The longest request line the reader holds: a client that never sends
   a newline cannot make the daemon buffer without bound. *)
let max_line_bytes = 1 lsl 20

(* The channel primitive [input_line] scans with: the length of the next
   line in [ic]'s buffer, its newline included, when the buffer holds
   one; minus the bytes it holds when it holds none (full, or at end of
   input); 0 at end of input. It refills the buffer when it must. *)
external input_scan_line : in_channel -> int = "caml_ml_input_scan_line"

(* [line_reader ic ()] is [ic]'s next line, trimmed, [`Long]
   for a line longer than [max_line_bytes] (read to its end and
   dropped), or [`Eof]. The newline is found in C, in the channel's own
   buffer; a line the buffer holds whole is copied out once. *)
let line_reader ic =
  let line = Buffer.create 1024 in
  let drop = Bytes.create 4096 in
  let rec discard k =
    if k > 0 then begin
      let m = min k (Bytes.length drop) in
      really_input ic drop 0 m;
      discard (k - m)
    end
  in
  let rec scan long =
    match input_scan_line ic with
    | 0 ->
      if long then `Long
      else if Buffer.length line > 0 then
        `Line (String.trim (Buffer.contents line))
      else `Eof
    | n ->
      let k = if n > 0 then n - 1 else -n in
      let long = long || Buffer.length line + k > max_line_bytes in
      if n > 0 && Buffer.length line = 0 && not long then begin
        let l = really_input_string ic k in
        ignore (input_char ic);
        `Line (String.trim l)
      end
      else begin
        if long then discard k else Buffer.add_channel line ic k;
        if n < 0 then scan long
        else begin
          ignore (input_char ic);
          if long then `Long else `Line (String.trim (Buffer.contents line))
        end
      end
  in
  fun () ->
    Buffer.reset line;
    scan false

(* Pipelined channel loop: the reader admits requests as fast as they
   arrive (the admission queue applies backpressure to searches; an
   answer the reader makes itself waits for the channel's earlier
   responses, so a client's backlog slows only its own reader);
   workers complete them and responses are written in completion order
   under a per-channel output lock — out-of-order under load, so clients
   correlate by ["id"]. With [workers = 1] the scheduler is a FIFO and
   responses come back in request order, exactly the old serialized
   behavior. On EOF or shutdown the loop waits for every response it owes
   before returning. *)
let serve_channel t ic oc =
  let out = Mutex.create () in
  let pm = Mutex.create () in
  let pc = Condition.create () in
  let pending = ref 0 in
  let stopped = ref false in
  let write resp =
    Mutex.protect out (fun () ->
        write_response oc resp;
        output_char oc '\n';
        flush oc)
  in
  let finish stop =
    Mutex.protect pm (fun () ->
        decr pending;
        if stop then stopped := true;
        Condition.signal pc)
  in
  (* The reader is the only waiter on [pc]: here, until the line it
     holds is the only one owed, and after the loop, until none is. *)
  let wait_turn () =
    Mutex.protect pm (fun () ->
        while !pending > 1 do
          Condition.wait pc pm
        done)
  in
  let read_line = line_reader ic in
  let rec loop () =
    if not (t.stopping || !stopped) then
      match read_line () with
      | `Eof -> ()
      | `Line "" -> loop ()
      | (`Line _ | `Long) as line ->
        let owed =
          Mutex.protect pm (fun () ->
              let owed = !pending > 0 in
              incr pending;
              owed)
        in
        let wait_turn = if owed then Some wait_turn else None in
        let k (resp, stop) =
          write resp;
          finish stop
        in
        (match line with
        | `Line line -> submit_line t ?wait_turn line k
        | `Long ->
          reject_line t ?wait_turn
            (Printf.sprintf "request line longer than %d bytes" max_line_bytes)
            k);
        loop ()
  in
  loop ();
  Mutex.protect pm (fun () ->
      while !pending > 0 do
        Condition.wait pc pm
      done)

let track_client t fd =
  let fds, lock = t.clients in
  Mutex.protect lock (fun () -> fds := fd :: !fds)

let untrack_client t fd =
  let fds, lock = t.clients in
  Mutex.protect lock (fun () -> fds := List.filter (fun f -> f != fd) !fds)

let close_clients t =
  let fds, lock = t.clients in
  let all = Mutex.protect lock (fun () -> !fds) in
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
    all

let listen_unix path =
  (try Unix.unlink path with _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  fd

let accept_loop t listen_fd =
  let rec loop () =
    match Unix.accept listen_fd with
    | exception _ -> ()  (* listener closed: shutdown *)
    | client, _ ->
      track_client t client;
      ignore
        (Thread.create
           (fun () ->
             let ic = Unix.in_channel_of_descr client in
             let oc = Unix.out_channel_of_descr client in
             (try serve_channel t ic oc with _ -> ());
             untrack_client t client;
             (try flush oc with _ -> ());
             try Unix.close client with _ -> ())
           ());
      if not t.stopping then loop ()
  in
  loop ()

(* [run t] serves requests from stdin (responses to stdout) and, when
   [socket] is given, from a Unix-domain socket with one thread per
   connection. Returns after stdin reaches EOF or a shutdown request
   arrives on any channel; in-flight requests are drained, then the
   listener and live connections are closed on the way out. *)
let run ?socket t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let listener =
    Option.map
      (fun path ->
        let fd = listen_unix path in
        (path, fd, Thread.create (fun () -> accept_loop t fd) ()))
      socket
  in
  serve_channel t stdin stdout;
  t.stopping <- true;
  drain t;
  (match listener with
  | None -> ()
  | Some (path, fd, thread) ->
    (try Unix.close fd with _ -> ());
    close_clients t;
    (try Thread.join thread with _ -> ());
    try Unix.unlink path with _ -> ());
  Mutex.protect t.obs_lock (fun () -> flush_observability t)
