(** Set-associative LRU cache simulator.

    Used by the locality experiments: the paper motivates iteration
    reordering partly by data locality ("used extensively by restructuring
    compilers for optimizing ... data locality", Section 1), so we measure
    miss counts of original vs. transformed nests on a simulated cache
    instead of 1992 hardware. Addresses are plain byte addresses; the
    replacement policy is true LRU per set; writes allocate like reads. *)

type config = {
  size_bytes : int;  (** total capacity *)
  line_bytes : int;  (** must divide [size_bytes] *)
  assoc : int;  (** ways; [size_bytes / line_bytes / assoc] sets *)
}

val fully_associative : size_bytes:int -> line_bytes:int -> config

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;
      (** misses that replaced a valid line. A set evicts only once more
          than [assoc] distinct lines map to it, whatever the order of
          the accesses, so a run that evicts nothing missed exactly once
          per distinct line it touched. *)
}

type t

val create : config -> t
(** @raise Invalid_argument on inconsistent geometry. *)

val config_of : t -> config
(** The geometry the cache was created with. *)

val access : t -> int -> bool
(** [access t addr] touches the byte address, returns [true] on a hit.
    A 2-way cache whose set count and line size are powers of two (lines
    of at least 2 bytes; the search objective's geometry) takes a
    dedicated probe; every other geometry the general one. Both make the
    same LRU decision with the same tie-break (the first least recently
    used way is the victim). *)

val stream : t -> starts:int array -> deltas:int array -> count:int -> unit
(** [stream t ~starts ~deltas ~count] replays [count] rounds of an
    address stream: round [k] touches [starts.(s) + k * deltas.(s)] for
    every site [s] in index order. The same hits, misses and final state
    as those [count * Array.length starts] calls of {!access}, without a
    call per address from the caller ({!Memsim.simulate} replays a whole
    innermost loop this way).
    @raise Invalid_argument if [starts] and [deltas] differ in length. *)

val stats : t -> stats
val reset : t -> unit
