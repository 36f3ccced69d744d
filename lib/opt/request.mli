(** One search request, as every front end states it: [loopt optimize]
    builds it from its flags, [loopt serve] from a JSON line. Both check
    it with {!check}, run it with {!run}, and serve keys its response
    cache with {!key}, so the two accept the same requests with the same
    messages and run them the same way. *)

type t = {
  objective : string;  (** ["locality"] or ["parallel"] ({!Search.of_name}) *)
  params : (string * int) list;  (** symbolic parameters, each named once *)
  procs : int;  (** simulated processors, [1..]{!Search.max_procs} *)
  steps : int;  (** longest sequence searched, [0..8] *)
  beam : int;  (** prefixes kept per step, [1..64] *)
  exact_topk : int;
      (** exact simulations per step, [>= 0]; [0] opens the tier-0
          screen and simulates every legal candidate *)
  tier0_only : bool;
      (** score with the tier-0 model alone; needs the screen, so not
          with [exact_topk = 0] *)
  deadline_ms : float option;  (** wall-clock budget *)
  max_nodes : int option;  (** node budget *)
}

val default : t
(** Locality, no parameters, 8 processors, 2 steps, beam 6,
    {!Engine.default_exact_topk}, tiered, no budget. *)

val check : t -> (unit, string) result
(** [Ok ()] when [r] can be run, else the first rule it breaks, in the
    order of the fields above: an unknown objective, a parameter named
    twice, or [procs], [steps], [beam] or [exact_topk] out of range, or
    [tier0_only] with [exact_topk = 0]. The limits on [steps] and [beam]
    keep one request from holding a worker while its candidate sequences
    grow without bound. *)

val key : t -> nest:string -> string
(** The response-cache key of [r] searching the nest named [nest]: every
    field that determines the answer, and only those. The budget
    ([deadline_ms], [max_nodes]) is left out, since it decides how long
    a search may run, not what its complete answer is, and a cut answer
    is never cached. Parameters are sorted, and each name is written
    after its length, so no name can absorb its neighbours' separators:
    [{"n": 8, "m": 2}] and [{"m=2,n": 8}] get different keys. [nest]
    goes last and may hold anything. *)

val run :
  ?domains:int -> ?tracer:Itf_obs.Tracer.t -> ?metrics:Itf_obs.Metrics.t ->
  ?provenance:bool -> ?since:float -> t -> Itf_ir.Nest.t ->
  Engine.outcome option
(** [run r nest] is {!Engine.search} of [nest] under [r]: the objective
    paired with its tier-0 spec ({!Search.of_name}, counting into
    [metrics]), the screen open when [exact_topk = 0], and a budget
    whose deadline is counted from the wall clock [since] (default:
    now), so time spent before the call counts against it.
    @raise Invalid_argument when [check r] fails. *)
