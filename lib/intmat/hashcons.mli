(** Hash-consing tables and integer-keyed memoization.

    Tables shared across domains and safe for fully concurrent use:
    internally each table is sharded into independently locked bucket
    arrays with a lock-free read fast path, so any thread on any domain
    may intern or probe at any time — there is no coordinator-thread
    restriction. Stats are exact (atomic counters). Interning a key
    returns the value built for it on first sight plus a dense integer
    id, so a later key can name it by one int.

    A table is append-only or bounded. Ids are never reused in either:
    in an append-only table they are stable for the life of the process
    and serve as equality witnesses; in a bounded table a key that comes
    back after an eviction gets a fresh id, so its ids are only fit to
    key memos. In this program only [core.template] and [core.sequence]
    are append-only, and the search's move set bounds both (DESIGN.md
    §10); every other table is bounded.

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
    number of entries the table holds now, [hits]/[misses] are cumulative
    probe counts and [evictions] the cumulative number of entries dropped
    by the table's size cap (always [0] for an append-only table). *)

module type HashedType = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

(** Key-indexed interning: the canonical value is built from the key (and
    its fresh id) on first sight, under the key's shard lock — builders
    must be cheap and must not re-enter the same table (intern children
    first and carry their ids in the key). A key in the table has exactly
    one id, even when domains race to intern it. *)
module Keyed (H : HashedType) : sig
  type 'v t

  val create : ?max_size:int -> string -> 'v t
  (** Creates an empty table and registers it with {!stats} under the
      given name. Call at module initialization, not per search.

      Without [max_size] the table is append-only. With it, the cap is
      enforced per shard like {!Memo}'s: a shard that would grow past
      its slice of [max_size] is flushed whole. Ids still come from
      the table's one counter, so a key interned again after a flush
      gets a fresh id, never one another key had. *)

  val intern : 'v t -> H.t -> (int -> 'v) -> 'v * int
end

(** Memoization of a pure function by key. The compute callback runs
    outside any lock (objective evaluations are long); racing computations
    of one key are benign because the function is deterministic.

    Memo tables are size-capped: [max_size] (default
    {!Memo.default_max_size}) is enforced per shard, and when an insert
    would grow a shard past its slice that shard is flushed whole, the
    evictions counted in {!stats}. The 16 slices are staggered between
    three and five quarters of [max_size / 16] and sum to at most
    [max_size], so the shards of a table fill up, and flush, at
    different times; a warm set fits only if its fullest shard fits
    that shard's slice.
    Flushing a memo of a pure function never changes results — later
    probes recompute — so capped and uncapped runs are byte-identical
    apart from timing. *)
module Memo (H : HashedType) : sig
  type 'v t

  val default_max_size : int
  (** [2^20] entries — far above any single search, small enough to keep
      a long-lived serve process flat. *)

  val create : ?max_size:int -> string -> 'v t
  val find_or_add : 'v t -> H.t -> (unit -> 'v) -> 'v
end

(** Pre-packaged key shapes for the common cases. *)

module Int_key : HashedType with type t = int
module Ints_key : HashedType with type t = int list
