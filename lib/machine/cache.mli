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

type stats = { accesses : int; hits : int; misses : int }

type t

val create : config -> t
(** @raise Invalid_argument on inconsistent geometry. *)

val config_of : t -> config
(** The geometry the cache was created with. *)

val access : t -> int -> bool
(** [access t addr] touches the byte address, returns [true] on a hit. *)

val stats : t -> stats
val reset : t -> unit
