(** The serve daemon's response cache: a bounded LRU from a request's
    fingerprint to an opaque value (the server stores rendered answers),
    with a spelling index from a request's text to the fingerprint it was
    answered under. Every operation takes the cache's own mutex, so any
    thread may call it; it uses nothing but the standard library and
    threads. *)

type 'a t

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;  (** entries held *)
  spellings : int;  (** size of the spelling index *)
}
(** A consistent snapshot, read under one lock acquisition. *)

val create : int -> 'a t
(** [create cap] holds at most [cap] entries (negative counts as [0]);
    at [0] it stores nothing. *)

val capacity : 'a t -> int

val find : 'a t -> ?spelling:string -> string -> 'a option * counters
(** The canonical probe: counts one hit or one miss. A hit refreshes the
    entry's recency and records [spelling] as a way to find the key. *)

val find_spelling : 'a t -> string -> (string * 'a * counters) option
(** The probe by text: the fingerprint and value a spelling names, while
    its entry is still held. A hit counts and refreshes like a canonical
    hit; finding nothing counts nothing. *)

val add : 'a t -> ?spelling:string -> string -> 'a -> counters
(** Stores a value, evicting the least recently touched entry when full,
    and records [spelling]. The spelling index is cleared, not grown,
    when it already holds [cap] spellings. *)

val counters : 'a t -> counters
