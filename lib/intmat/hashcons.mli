(** Hash-consing tables and integer-keyed memoization.

    Append-only tables shared across domains and safe for fully
    concurrent use: internally each table is sharded into independently
    locked bucket arrays with a lock-free read fast path, so any thread
    on any domain may intern or probe at any time — there is no
    coordinator-thread restriction. Stats are exact (atomic counters).
    Interning a term returns a canonical physically-shared representative
    plus a dense integer id, making [hash]/[equal] on interned terms O(1)
    integer operations. Ids are stable for the life of the process.

    Ids are NOT a usable total order: they depend on intern order, which
    depends on evaluation order, so any tie-break built on them would make
    search winners scheduling-dependent. Total orders over interned terms
    stay structural (with physical-equality fast paths); only equality and
    hashing key on ids. *)

type stats = {
  name : string;
  size : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : unit -> stats list
(** Snapshot of every table created so far, sorted by name. [size] is the
    number of distinct entries (= ids handed out for interning tables),
    [hits]/[misses] are cumulative probe counts, [evictions] the entries
    dropped by {!Memo} size caps (always [0] for interning tables, which
    must keep ids stable and never evict). *)

module type HashedType = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

(** Key-indexed interning: the canonical value is built from the key (and
    its fresh id) on first sight, under the key's shard lock — builders
    must be cheap and must not re-enter the same table (intern children
    first and carry their ids in the key). *)
module Keyed (H : HashedType) : sig
  type 'v t

  val create : string -> 'v t
  (** Creates an empty table and registers it with {!stats} under the
      given name. Call at module initialization, not per search. *)

  val intern : 'v t -> H.t -> (int -> 'v) -> 'v * int
  val size : 'v t -> int
end

(** Self-keyed hash-consing: the first representative interned becomes the
    canonical value of its equivalence class. *)
module Make (H : HashedType) : sig
  type table

  val create : string -> table
  val intern : table -> H.t -> H.t * int
  val size : table -> int
end

(** Memoization of a pure function by key. The compute callback runs
    outside any lock (objective evaluations are long); racing computations
    of one key are benign because the function is deterministic.

    Memo tables are size-capped: [max_size] (default
    {!Memo.default_max_size}) is enforced per shard, and when an insert
    would grow a shard past its [max_size / 16] slice that shard is
    flushed whole, the evictions counted in {!stats}. Flushing a memo of
    a pure function never changes results — later probes recompute — so
    capped and uncapped runs are byte-identical apart from timing. *)
module Memo (H : HashedType) : sig
  type 'v t

  val default_max_size : int
  (** [2^20] entries — far above any single search, small enough to keep
      a long-lived serve process flat. *)

  val create : ?max_size:int -> string -> 'v t
  val find_or_add : 'v t -> H.t -> (unit -> 'v) -> 'v
  val size : 'v t -> int
end

(** Pre-packaged key shapes for the common cases. *)

module Int_key : HashedType with type t = int
module Ints_key : HashedType with type t = int list
