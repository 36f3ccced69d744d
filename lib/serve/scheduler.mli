(** The serve daemon's scheduler: a bounded admission queue whose jobs
    run on up to [workers] domains of the shared pool
    ({!Itf_opt.Pool.shared}), with shedding, draining, and the
    per-channel count of owed responses that keeps a channel's answers
    in request order. It knows nothing of the protocol. *)

type t

val create : workers:int -> capacity:int -> Itf_obs.Metrics.t -> t
(** [create ~workers ~capacity metrics] runs at most [workers] (at
    least 1) jobs at once, and lets [capacity] sheddable jobs wait. It
    sets the [serve.workers] gauge and feeds [serve.queue.depth],
    [serve.workers.busy], [serve.queue.wait_ms] (receipt to start, for
    queued jobs only) and [serve.queue.shed]. *)

val submit : t -> ?shed:(int -> unit) -> recv:float -> (unit -> unit) -> unit
(** [submit t ~recv job] queues [job], received at wall-clock [recv].
    With [shed], the job is refused when [capacity] jobs already wait:
    [shed] is called on the calling thread with the count it saw (queued
    jobs that cannot be shed included), and the job never runs. Without
    it the job is always admitted. An exception escaping [job] is
    dropped. *)

val stop : t -> unit
(** Marks the scheduler as stopping, then blocks until no job waits and
    none runs. *)

val stopping : t -> bool
(** Whether {!stop} was called: channel loops read no further line. *)

type load = {
  workers : int;
  capacity : int;
  queued : int;  (** jobs waiting, not running *)
  busy : int;  (** jobs running *)
  shed : int;  (** jobs refused so far *)
  wait_ms : Itf_obs.Metrics.histogram;
}

val load : t -> load
(** The scheduler's state, for the [status] op. *)

type channel
(** One client channel's count of responses owed. *)

val channel : unit -> channel

val owe : channel -> (unit -> unit) option
(** Counts one more response owed. When an earlier one was already owed,
    returns the gate the reader passes before writing an answer it made
    itself: it blocks until this is the only response owed. *)

val paid : channel -> unit
(** Counts one response written. *)

val settle : channel -> unit
(** Blocks until no response is owed. *)
