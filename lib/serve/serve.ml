(* loopt serve — a long-running search service over JSONL.

   One request per line on stdin (responses on stdout) and, optionally, on
   a Unix-domain socket with one thread per connection. Three modules do
   the parts that stand alone: [Protocol] reads lines, decodes requests
   and renders responses; [Scheduler] admits searches into a bounded
   queue run by up to [workers] domains; [Response_cache] is the LRU of
   complete answers with its spelling index. This module joins them: it
   runs searches, records every request, answers the introspection ops
   and owns the sockets.

   Running searches in parallel is safe because the intern tables and
   objective memos are sharded and safe for concurrent interning, the
   engine keeps every per-search mutable state local to the search call,
   and the metrics registry is atomic. It is deterministic because the
   engine's orders are structural and the memoized objectives return
   bit-identical floats whichever worker warmed them, so a request's
   payload is byte-identical at one worker or eight, cold or warm
   (DESIGN.md §13). Only [Complete] outcomes are cached: a degraded answer
   is an artifact of one request's deadline, not a fact about the nest.

   Most of a daemon's traffic repeats a request it has already answered,
   so a hit does not wait for a worker. The thread that read the line
   probes the cache's spelling index with the request's text key and, on
   a hit, answers there: no queue, no shedding, no queue wait, no nest
   parse. It does so only when its channel owes no earlier response, so
   with one worker a channel's responses keep their request order;
   otherwise the hit queues as a miss does. The worker still parses,
   fingerprints and probes, so a respelled nest or a pipelined duplicate
   hits there, and it records the spelling on every canonical hit and
   complete insert.

   Per-request isolation: a malformed request is answered inline by the
   reading thread and an engine exception becomes that request's error
   response; neither can take down a worker or block the queue.

   Live introspection (DESIGN.md §12): every search-shaped request is
   recorded in a bounded ring (status, wall time, per-phase breakdown,
   cache hit), its latency observed into [serve.request_us]. [status]
   snapshots uptime, request counters, latency quantiles, the queue and
   worker gauges, the phase breakdown, cache and intern-table health,
   process memory and the recent slow requests; [metrics] exposes the
   whole registry as Prometheus text. Span traces are captured per
   request and retained by a deterministic head-sampling decision on the
   fingerprint ([--sample-rate]), with slow (>= [--slow-ms]), degraded
   and error requests always kept. *)

module Json = Itf_obs.Json
module Metrics = Itf_obs.Metrics
module Tracer = Itf_obs.Tracer
module Profile = Itf_obs.Profile
module Engine = Itf_opt.Engine
module Request = Itf_opt.Request
module Stats = Itf_opt.Stats
open Protocol

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
  (* One mutex serializes pushes and snapshots, so concurrent workers
     never drop a record or read a half-advanced cursor. *)
  type t = {
    slots : req_record option array;
    mutex : Mutex.t;
    mutable next : int;
  }

  let create cap = { slots = Array.make (max 1 cap) None; mutex = Mutex.create (); next = 0 }

  let push t x =
    Mutex.protect t.mutex (fun () ->
        t.slots.(t.next) <- Some x;
        t.next <- (t.next + 1) mod Array.length t.slots)

  (* Newest first. *)
  let recent t =
    Mutex.protect t.mutex (fun () ->
        let n = Array.length t.slots in
        let out = ref [] in
        for k = 0 to n - 1 do
          Option.iter (fun x -> out := x :: !out) t.slots.((t.next + k) mod n)
        done;
        !out)
end

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

let default_max_cache = 64
let default_slow_ms = 500.
let default_recent = 128
let default_workers = 1
let default_queue_depth = 64
let slow_log_limit = 16

(* The instruments every request updates, resolved once in [create] so
   a request makes no registry lookup for them. *)
type instruments = {
  requests : (string * Metrics.counter) list;
      (** [serve.requests{status}] for each status a response carries *)
  request_us : Metrics.histogram;
  cache_size : Metrics.gauge;
  cache_hits : Metrics.gauge;
  cache_misses : Metrics.gauge;
  cache_evictions : Metrics.gauge;
}

let instruments metrics =
  let gauge name = Metrics.gauge metrics ("serve.cache." ^ name) in
  {
    requests =
      List.map
        (fun s ->
          (s, Metrics.counter metrics ~labels:[ ("status", s) ] "serve.requests"))
        [ "ok"; "degraded"; "error"; "overloaded" ];
    request_us =
      Metrics.histogram metrics ~buckets:Metrics.duration_buckets
        "serve.request_us";
    cache_size = gauge "size";
    cache_hits = gauge "hits";
    cache_misses = gauge "misses";
    cache_evictions = gauge "evictions";
  }

type t = {
  domains : int option;
  default_deadline_ms : float option;
  cache : entry Response_cache.t;
  sched : Scheduler.t;
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
          and the metrics/trace output files *)
  clients : Unix.file_descr list ref * Mutex.t;
}

let create ?domains ?default_deadline_ms ?(max_cache = default_max_cache)
    ?metrics_out ?trace_out ?(slow_ms = default_slow_ms) ?(sample_rate = 1.)
    ?(workers = default_workers) ?(queue_depth = default_queue_depth) () =
  let metrics = Metrics.create () in
  {
    domains;
    default_deadline_ms;
    cache = Response_cache.create max_cache;
    sched = Scheduler.create ~workers ~capacity:queue_depth metrics;
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
  }

let metrics t = t.metrics

let count_request t status =
  Metrics.incr (List.assoc status t.inst.requests)

let publish_cache_gauges t (c : Response_cache.counters) =
  let g gauge v = Metrics.set gauge (float_of_int v) in
  g t.inst.cache_size c.size;
  g t.inst.cache_hits c.hits;
  g t.inst.cache_misses c.misses;
  g t.inst.cache_evictions c.evictions

(* Process memory in MB (10^6 bytes): the major heap now and at its peak.
   [Gc.quick_stat] reads the runtime's counters without collecting, so no
   request ever pays for a major collection. *)
let memory_mb () =
  let s = Gc.quick_stat () in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  (mb s.Gc.heap_words, mb s.Gc.top_heap_words)

let write_text_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Splices [join], a retained span tree, into the trace forest (nothing
   when it is [Tracer.null]), then rewrites the output files whole, so an
   external observer always sees a complete document. [obs_lock] keeps
   two workers from interleaving the writes. *)
let flush_observability ~join t =
  Mutex.protect t.obs_lock (fun () ->
      if Tracer.enabled join then Tracer.join t.tracer [ join ];
      (match t.metrics_out with
      | None -> ()
      | Some path ->
        Engine.record_tables t.metrics;
        publish_cache_gauges t (Response_cache.counters t.cache);
        write_text_file path (Json.to_string (Metrics.dump t.metrics) ^ "\n"));
      match t.trace_out with
      | None -> ()
      | Some path ->
        write_text_file path
          (String.concat "\n" (Tracer.jsonl_lines (Tracer.roots t.tracer))
          ^ "\n"))

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

(* A histogram's named quantiles, as [prefix ^ name] fields; 0 when it is
   empty. *)
let quantiles ?(prefix = "") h qs =
  List.map
    (fun (name, q) ->
      (prefix ^ name, Json.Float (Option.value ~default:0. (Metrics.quantile h q))))
    qs

(* The status snapshot. Every structure it reads is self-synchronized,
   and every number is an integer counter or derived from integer bucket
   counts, so two servers fed the same requests report the same snapshot
   but for the wall-clock fields and the instantaneous queue and worker
   levels. *)
let status_snapshot t ~id =
  let requests =
    List.map (fun (s, c) -> (s, Metrics.counter_value c)) t.inst.requests
  in
  let total = List.fold_left (fun n (_, k) -> n + k) 0 requests in
  let lat = t.inst.request_us in
  let lat_count = Metrics.histogram_count lat in
  let lat_sum = Metrics.histogram_sum lat in
  let load = Scheduler.load t.sched in
  let slow =
    List.filteri
      (fun k _ -> k < slow_log_limit)
      (List.filter (is_slow t) (Ring.recent t.recent))
  in
  let intern =
    List.map
      (fun (s : Itf_mat.Hashcons.stats) ->
        Json.Obj
          [
            ("table", Json.String s.name);
            ("size", Json.Int s.size);
            ("hits", Json.Int s.hits);
            ("misses", Json.Int s.misses);
            ("evictions", Json.Int s.evictions);
          ])
      (Itf_mat.Hashcons.stats ())
  in
  let heap_mb, top_heap_mb = memory_mb () in
  let cache = Response_cache.counters t.cache in
  Json.Obj
    ([
       ("id", id);
       ("status", Json.String "ok");
       ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
       ( "requests",
         Json.Obj
           (List.map (fun (s, n) -> (s, Json.Int n)) requests
           @ [ ("total", Json.Int total) ]) );
       ( "queue",
         Json.Obj
           ([
              ("depth", Json.Int load.queued);
              ("capacity", Json.Int load.capacity);
              ("shed", Json.Int load.shed);
            ]
           @ quantiles ~prefix:"wait_ms_" load.wait_ms
               [ ("p50", 0.5); ("p99", 0.99) ]) );
       ( "workers",
         Json.Obj
           [ ("configured", Json.Int load.workers); ("busy", Json.Int load.busy) ]
       );
       ( "latency_us",
         Json.Obj
           ([
              ("count", Json.Int lat_count);
              ("sum", Json.Float lat_sum);
              ( "mean",
                Json.Float
                  (if lat_count = 0 then 0. else lat_sum /. float_of_int lat_count)
              );
            ]
           @ quantiles lat [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]) );
     ]
    @ Stats.status t.metrics
    @ [
        ( "cache",
          Json.Obj
            [
              ("size", Json.Int cache.size);
              ("capacity", Json.Int (Response_cache.capacity t.cache));
              ("hits", Json.Int cache.hits);
              ("misses", Json.Int cache.misses);
              ("evictions", Json.Int cache.evictions);
              ("spellings", Json.Int cache.spellings);
            ] );
        ("intern", Json.List intern);
        ( "memory",
          Json.Obj
            [
              ("heap_mb", Json.Float heap_mb);
              ("top_heap_mb", Json.Float top_heap_mb);
            ] );
        ("slow_ms", Json.Float t.slow_ms);
        ("sample_rate", Json.Float t.sample_rate);
        ("slow", Json.List (List.map record_json slow));
      ])

let metrics_snapshot t ~id =
  let heap, top = memory_mb () in
  Metrics.set (Metrics.gauge t.metrics "gc.heap_mb") heap;
  Metrics.set (Metrics.gauge t.metrics "gc.top_heap_mb") top;
  publish_cache_gauges t (Response_cache.counters t.cache);
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
   finished search-shaped request, on whichever thread made its response:
   a worker for searches it ran, the reading thread for inline answers. *)
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
  let record =
    {
      rq_id = req_id;
      rq_fingerprint = fp;
      rq_status = status;
      rq_wall_us = (Unix.gettimeofday () -. t_recv) *. 1e6;
      rq_cached = cached;
      rq_phases_us = phases;
      rq_profile = [];
    }
  in
  (* Head sampling is decided by the fingerprint alone, so reruns of the
     same request stream retain the same traces; the tail condition
     overrides it for anything worth a post-mortem. Sampling only chooses
     retention: capture already happened. *)
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
  Metrics.observe t.inst.request_us record.rq_wall_us;
  Ring.push t.recent record;
  Option.iter (publish_cache_gauges t) counters;
  flush_observability ~join:(if retained then rt else Tracer.null) t

let elapsed_ms ~t_recv = (Unix.gettimeofday () -. t_recv) *. 1000.

(* A response that is not a hit. *)
let fresh req ~t_recv body =
  Value (envelope req.id body ~cached:false ~time_ms:(elapsed_ms ~t_recv))

(* A cache hit's response, built and recorded in one place for the
   reader's hit by text and the worker's canonical hit, so the two answer
   and count alike. [counters] are the ones the probe read. *)
let answer_hit t req ~t_recv ~fp counters entry =
  let resp = Hit { id = req.id; entry; time_ms = elapsed_ms ~t_recv } in
  record_request t ~fp ~cached:true ~counters ~req_id:req.id ~t_recv resp;
  resp

let expired req ~t_recv =
  match req.search.deadline_ms with
  | Some ms -> elapsed_ms ~t_recv >= ms
  | None -> false

(* One admitted search, on a worker. A request whose whole allowance was
   eaten while it waited returns [queue:deadline] without touching the
   engine, and is never cached. Otherwise: parse, fingerprint, probe,
   search, the deadline still counted from receipt. A canonical hit or a
   complete insert records [spelling], so the next exact repeat of this
   text is answered by the reader. *)
let exec_search t req ~spelling ~t_recv =
  let record ?fp ?phases ?counters ?rt resp =
    record_request t ?fp ?phases ?counters ?rt ~req_id:req.id ~t_recv resp;
    resp
  in
  if expired req ~t_recv then
    record
      (fresh req ~t_recv
         [
           ("status", Json.String "degraded");
           ("cut", Json.String "queue:deadline");
         ])
  else
    (* Spans are captured per request, and spliced into the retained
       forest only if sampling keeps them or the tail condition fires. *)
    let rt = if t.trace_out = None then Tracer.null else Tracer.create () in
    let failed msg = record ~rt (Value (error_response ~id:req.id msg)) in
    try
      match Itf_lang.Parser.parse req.nest_src with
      | exception Itf_lang.Parser.Error { line; message } ->
        failed (Printf.sprintf "nest:%d: %s" line message)
      | { nest; _ } -> (
        let fp = fingerprint req nest in
        match Response_cache.find t.cache ?spelling fp with
        | Some entry, counters -> answer_hit t req ~t_recv ~fp counters entry
        | None, counters -> (
          let outcome =
            Tracer.span rt "serve.request"
              ~attrs:(fun () ->
                [
                  ("id", Tracer.String (Json.to_string req.id));
                  ("fingerprint", Tracer.String fp);
                ])
              (fun () ->
                Request.run ?domains:t.domains ~tracer:rt ~metrics:t.metrics
                  ~since:t_recv req.search nest)
          in
          match outcome with
          | None -> failed "nest could not be scored"
          | Some o ->
            let body = body o in
            (* Two workers finishing the same request race the insert, but
               both computed the same body, so either store wins. *)
            let counters =
              if o.completion = Engine.Complete then
                Response_cache.add t.cache ?spelling fp (entry body)
              else counters
            in
            let phases =
              List.map (fun (p, s) -> (p, s *. 1e6)) (Stats.phases o.stats)
            in
            record ~fp ~phases ~counters ~rt (fresh req ~t_recv body)))
    with e -> failed ("internal error: " ^ Printexc.to_string e)

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
   once with (response, stop). Shutdown, an unknown op, a malformed
   search, a hit found by text and a shed search are answered on the
   calling thread; admitted jobs reply from a worker. With [wait_turn]
   (the channel owes an earlier response) an inline answer waits on it,
   a hit queues as a miss does, and shutdown drains the queue first, so
   with one worker a channel's responses keep their request order. Never
   raises. *)
let submit t ?wait_turn json k =
  let t_recv = Unix.gettimeofday () in
  match decode ~default_deadline_ms:t.default_deadline_ms json with
  | `Op (id, "shutdown") ->
    (* Answer everything already admitted first: the shutdown response
       is always the last one out. *)
    Scheduler.stop t.sched;
    count_request t "ok";
    k
      ( Value
          (Json.Obj
             [
               ("id", id);
               ("status", Json.String "ok");
               ("shutdown", Json.Bool true);
             ]),
        true )
  | `Op (id, (("status" | "metrics") as op)) ->
    (* Ops are never shed: they are cheap, bounded and exactly what an
       operator needs during overload. *)
    Scheduler.submit t.sched ~recv:t_recv (fun () ->
        let resp =
          if op = "status" then status_snapshot t ~id
          else metrics_snapshot t ~id
        in
        count_request t "ok";
        flush_observability ~join:Tracer.null t;
        k (Value resp, false))
  | `Op (id, other) ->
    count_request t "error";
    flush_observability ~join:Tracer.null t;
    answer_inline ?wait_turn k
      (error_response ~id
         (Printf.sprintf "unknown op %S (use status|metrics|shutdown)" other))
  | `Malformed (id, msg) ->
    let resp = error_response ~id msg in
    record_request t ~req_id:id ~t_recv (Value resp);
    answer_inline ?wait_turn k resp
  | `Search req -> (
    let spelling =
      if Response_cache.capacity t.cache > 0 then Some (text_key req) else None
    in
    (* A request whose deadline has already run out queues like any
       other, so the worker answers it [queue:deadline]. *)
    let hit =
      match spelling with
      | Some s when Option.is_none wait_turn && not (expired req ~t_recv) ->
        Response_cache.find_spelling t.cache s
      | _ -> None
    in
    match hit with
    | Some (fp, entry, counters) ->
      k (answer_hit t req ~t_recv ~fp counters entry, false)
    | None ->
      Scheduler.submit t.sched ~recv:t_recv
        ~shed:(fun waiting ->
          let resp =
            Json.Obj
              [
                ("id", req.id);
                ("status", Json.String "overloaded");
                ( "error",
                  Json.String
                    (Printf.sprintf
                       "queue full (%d waiting, capacity %d): request shed"
                       waiting (Scheduler.load t.sched).capacity) );
              ]
          in
          record_request t ~req_id:req.id ~t_recv (Value resp);
          answer_inline ?wait_turn k resp)
        (fun () -> k (exec_search t req ~spelling ~t_recv, false)))

(* A line that is not a request (not JSON, or too long to read) is
   answered inline, and counted, timed and ring-recorded with a [Null] id
   exactly like a malformed request object. *)
let reject_line t ?wait_turn msg k =
  let t_recv = Unix.gettimeofday () in
  let resp = error_response ~id:Json.Null msg in
  record_request t ~req_id:Json.Null ~t_recv (Value resp);
  answer_inline ?wait_turn k resp

let submit_line t ?wait_turn line k =
  match Json.of_string line with
  | Ok json -> submit t ?wait_turn json k
  | Error msg -> reject_line t ?wait_turn ("malformed JSON: " ^ msg) k

let handle_line t line =
  let ch = Scheduler.channel () in
  let reply = ref None in
  ignore (Scheduler.owe ch);
  submit_line t line (fun r ->
      reply := Some r;
      Scheduler.paid ch);
  Scheduler.settle ch;
  let resp, stop = Option.get !reply in
  (to_json resp, stop)

(* ------------------------------------------------------------------ *)
(* I/O loops                                                           *)
(* ------------------------------------------------------------------ *)

(* The reader admits requests as they arrive; workers complete them and
   responses are written in completion order under a per-channel lock,
   so clients correlate by ["id"]. With one worker the scheduler is a
   FIFO and responses come back in request order. On EOF or shutdown the
   loop waits for every response it owes. *)
let serve_channel t ic oc =
  let out = Mutex.create () in
  let ch = Scheduler.channel () in
  let stopped = ref false in
  let k (resp, stop) =
    Mutex.protect out (fun () ->
        write_response oc resp;
        output_char oc '\n';
        flush oc);
    if stop then stopped := true;
    Scheduler.paid ch
  in
  let read_line = line_reader ic in
  let rec loop () =
    if not (Scheduler.stopping t.sched || !stopped) then
      match read_line () with
      | `Eof -> ()
      | `Line "" -> loop ()
      | (`Line _ | `Long) as line ->
        let wait_turn = Scheduler.owe ch in
        (match line with
        | `Line line -> submit_line t ?wait_turn line k
        | `Long ->
          reject_line t ?wait_turn
            (Printf.sprintf "request line longer than %d bytes" max_line_bytes)
            k);
        loop ()
  in
  loop ();
  Scheduler.settle ch

let accept_loop t listen_fd =
  let fds, lock = t.clients in
  let rec loop () =
    match Unix.accept listen_fd with
    | exception _ -> () (* listener closed: shutdown *)
    | client, _ ->
      Mutex.protect lock (fun () -> fds := client :: !fds);
      ignore
        (Thread.create
           (fun () ->
             let ic = Unix.in_channel_of_descr client in
             let oc = Unix.out_channel_of_descr client in
             (try serve_channel t ic oc with _ -> ());
             Mutex.protect lock (fun () ->
                 fds := List.filter (fun f -> f != client) !fds);
             (try flush oc with _ -> ());
             try Unix.close client with _ -> ())
           ());
      if not (Scheduler.stopping t.sched) then loop ()
  in
  loop ()

let run ?socket t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let listener =
    Option.map
      (fun path ->
        (try Unix.unlink path with _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 8;
        (path, fd, Thread.create (fun () -> accept_loop t fd) ()))
      socket
  in
  serve_channel t stdin stdout;
  Scheduler.stop t.sched;
  Option.iter
    (fun (path, fd, thread) ->
      (try Unix.close fd with _ -> ());
      let fds, lock = t.clients in
      List.iter
        (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
        (Mutex.protect lock (fun () -> !fds));
      (try Thread.join thread with _ -> ());
      try Unix.unlink path with _ -> ())
    listener;
  flush_observability ~join:Tracer.null t
