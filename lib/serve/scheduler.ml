(* The serve scheduler: a bounded FIFO of admitted jobs, run by up to
   [workers] pump loops on the process-wide domain pool, and the gate
   that keeps a channel's own answers in its request order.

   The pool is shared with other servers and with the engine's candidate
   fan-out, and grows to the largest size asked; the scheduler bounds
   this server's concurrency itself, so sharing cannot over-admit. A pump
   loop occupies a pool domain only while the queue has work. *)

module Metrics = Itf_obs.Metrics
module Pool = Itf_opt.Pool

type load = {
  workers : int;
  capacity : int;
  queued : int;
  busy : int;
  shed : int;
  wait_ms : Metrics.histogram;
}

type t = {
  workers : int;
  capacity : int;
  pool : Pool.t;
  mutex : Mutex.t;  (** guards [jobs] and [running] *)
  idle : Condition.t;  (** broadcast when no job waits and no pump runs *)
  jobs : (float * (unit -> unit)) Queue.t;  (** receipt time, job *)
  mutable running : int;  (** active pump loops, at most [workers] *)
  mutable stopping : bool;
  depth : Metrics.gauge;
  busy : Metrics.gauge;
  wait_ms : Metrics.histogram;
  shed : Metrics.counter;
}

let create ~workers ~capacity metrics =
  let workers = max 1 workers in
  let gauge = Metrics.gauge metrics in
  Metrics.set (gauge "serve.workers") (float_of_int workers);
  {
    workers;
    capacity = max 0 capacity;
    pool = Pool.shared ~workers ();
    mutex = Mutex.create ();
    idle = Condition.create ();
    jobs = Queue.create ();
    running = 0;
    stopping = false;
    depth = gauge "serve.queue.depth";
    busy = gauge "serve.workers.busy";
    wait_ms =
      Metrics.histogram metrics ~buckets:Metrics.duration_buckets
        "serve.queue.wait_ms";
    shed = Metrics.counter metrics "serve.queue.shed";
  }

(* Caller holds [t.mutex]. *)
let publish_depth t = Metrics.set t.depth (float_of_int (Queue.length t.jobs))

(* One pump loop: run the queue's jobs until it is empty, then release
   the worker slot. *)
let rec pump t =
  let job =
    Mutex.protect t.mutex (fun () ->
        match Queue.take_opt t.jobs with
        | None ->
          t.running <- t.running - 1;
          if t.running = 0 then Condition.broadcast t.idle;
          None
        | some ->
          publish_depth t;
          some)
  in
  match job with
  | None -> ()
  | Some (recv, job) ->
    Metrics.gauge_add t.busy 1.;
    Metrics.observe t.wait_ms ((Unix.gettimeofday () -. recv) *. 1000.);
    (* A job makes its own error responses; this catch-all only keeps an
       unexpected exception from killing a shared pool domain. *)
    (try job () with _ -> ());
    Metrics.gauge_add t.busy (-1.);
    pump t

(* A job with [shed] is refused once [capacity] jobs wait; queued
   introspection ops count as waiting, so a shed may report more than
   the capacity. Admitting a job tops the pump loops up to [workers]. *)
let submit t ?shed ~recv job =
  let refused =
    Mutex.protect t.mutex (fun () ->
        let waiting = Queue.length t.jobs in
        if Option.is_some shed && waiting >= t.capacity then Some waiting
        else begin
          Queue.push (recv, job) t.jobs;
          publish_depth t;
          if t.running < t.workers then begin
            t.running <- t.running + 1;
            Pool.submit t.pool (fun () -> pump t)
          end;
          None
        end)
  in
  match (refused, shed) with
  | Some waiting, Some shed ->
    Metrics.incr t.shed;
    shed waiting
  | _ -> ()

(* Whenever the queue is non-empty at least one pump runs ([submit] tops
   the loops up under the same lock), so this returns once clients stop
   submitting. *)
let drain t =
  Mutex.protect t.mutex (fun () ->
      while (not (Queue.is_empty t.jobs)) || t.running > 0 do
        Condition.wait t.idle t.mutex
      done)

let stop t =
  t.stopping <- true;
  drain t

let stopping t = t.stopping

let load t : load =
  {
    workers = t.workers;
    capacity = t.capacity;
    queued = Mutex.protect t.mutex (fun () -> Queue.length t.jobs);
    busy = int_of_float (Metrics.gauge_value t.busy);
    shed = Metrics.counter_value t.shed;
    wait_ms = t.wait_ms;
  }

(* ------------------------------------------------------------------ *)
(* Per-channel order                                                   *)
(* ------------------------------------------------------------------ *)

type channel = { lock : Mutex.t; turn : Condition.t; mutable owed : int }

let channel () = { lock = Mutex.create (); turn = Condition.create (); owed = 0 }

(* The channel's reader is the only waiter on [turn]. *)
let wait_owed ch n =
  Mutex.protect ch.lock (fun () ->
      while ch.owed > n do
        Condition.wait ch.turn ch.lock
      done)

let wait_turn ch () = wait_owed ch 1

let owe ch =
  Mutex.protect ch.lock (fun () ->
      ch.owed <- ch.owed + 1;
      if ch.owed > 1 then Some (wait_turn ch) else None)

let paid ch =
  Mutex.protect ch.lock (fun () ->
      ch.owed <- ch.owed - 1;
      Condition.signal ch.turn)

let settle ch = wait_owed ch 0
