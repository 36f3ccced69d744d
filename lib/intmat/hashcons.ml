(* Generic hash-consing and integer-keyed memoization.

   Every table is safe for fully concurrent use: any thread on any domain
   may intern or probe at any time. Tables are sharded — [nshards]
   independent bucket arrays, each guarded by its own mutex — so writers
   on distinct shards never contend, and reads take no lock at all: a
   probe walks an immutable bucket list published through an [Atomic]
   array cell, and only a miss falls back to the shard lock (where it
   re-probes before inserting, so every racer still sees exactly one
   canonical value per key). This is what lets N serve workers intern
   candidate sequences in parallel.

   Ids and hit/miss/eviction counts come from atomic counters; a table's
   size is the sum of its shards' entry counts. Dense ids are handed out
   in interning order and never reused; in an append-only table they are
   stable for the life of the process and valid as hash keys and
   equality witnesses, but NOT as an ordering — intern order depends on
   scheduling, so total orders stay structural (see DESIGN.md sections
   10 and 13). *)

type stats = {
  name : string;
  size : int;
  hits : int;
  misses : int;
  evictions : int;
}

let registry : (unit -> stats) list ref = ref []
let registry_mutex = Mutex.create ()

let register f =
  Mutex.lock registry_mutex;
  registry := f :: !registry;
  Mutex.unlock registry_mutex

let stats () =
  Mutex.lock registry_mutex;
  let fs = !registry in
  Mutex.unlock registry_mutex;
  List.sort
    (fun a b -> String.compare a.name b.name)
    (List.rev_map (fun f -> f ()) fs)

module type HashedType = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

(* Shard geometry, shared by [Keyed] and [Memo]. The shard index comes
   from the low bits of the spread hash, the in-shard bucket index from
   the remaining bits, so the two are independent. *)
let shard_bits = 4
let nshards = 1 lsl shard_bits
let shard_mask = nshards - 1

(* Every table starts at 256 buckets in all, spread over the shards;
   shards grow on their own as they fill. *)
let initial_buckets = 256 / nshards

(* Fold hashes like [Ints_key]'s keep their low bits a function of the
   parts' low bits alone, so keys whose parts advance in lockstep by a
   multiple of [nshards] would all pick one shard. Multiplying by a
   large odd constant carries every bit of the hash into the high bits,
   and the xor-shift brings them back down, so both the shard choice
   and the bucket choice see well-mixed bits. *)
let spread h =
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* The sharded table under both [Keyed] and [Memo]. Each shard is a
   bucket array published through an [Atomic] cell, its entry count and
   its lock.

   Bucket lists are immutable; [add] replaces an array cell's head under
   the shard lock and then re-publishes the array with an [Atomic.set],
   so lock-free readers that observe the new list also observe the fully
   built entry. A lock-free probe that misses is never trusted by a
   writer: it re-probes under the shard lock before adding.

   [max_size] bounds the table, enforced per shard: when an add would
   push a shard past its slice, that shard is flushed whole (a
   generational clear: O(1) amortized, no LRU bookkeeping on the hot
   path) and the dropped entries are counted as evictions. Every later
   probe of their keys misses. Without [max_size] the table is
   append-only.

   The slices are staggered, shard [i] getting
   [max_size * (3 (nshards - 1) + 2i) / (4 nshards (nshards - 1))] —
   from three quarters to five quarters of [max_size / nshards],
   summing to [max_size] less rounding. A well-spread hash fills every
   shard at the same rate, so equal slices would fill up together and
   the table would flush almost whole within a few inserts, its size
   swinging between empty and full. Staggered slices flush at different
   times, so under steady novel traffic a table's size, and the live
   heap it pins, stays level. A warm set fits only if every shard's
   part of it fits that shard's slice: size a cap so that the warm
   set's fullest shard stays below the smallest slice,
   [3/4 * max_size / nshards]. *)
module Sharded (H : HashedType) = struct
  type 'v shard = {
    mutex : Mutex.t;
    buckets : (H.t * 'v) list array Atomic.t;
    mutable count : int;  (* entries in this shard; shard-lock protected *)
    slice : int;  (* the entries this shard may hold *)
  }

  type 'v t = {
    shards : 'v shard array;
    hits : int Atomic.t;
    misses : int Atomic.t;
    evictions : int Atomic.t;
  }

  let create ?max_size name =
    let t =
      {
        shards =
          Array.init nshards (fun i ->
              {
                mutex = Mutex.create ();
                buckets = Atomic.make (Array.make initial_buckets []);
                count = 0;
                slice =
                  (match max_size with
                  | None -> max_int
                  | Some m ->
                    max 1
                      (m * ((3 * (nshards - 1)) + (2 * i))
                      / (4 * nshards * (nshards - 1))));
              });
        hits = Atomic.make 0;
        misses = Atomic.make 0;
        evictions = Atomic.make 0;
      }
    in
    register (fun () ->
        {
          name;
          size = Array.fold_left (fun acc s -> acc + s.count) 0 t.shards;
          hits = Atomic.get t.hits;
          misses = Atomic.get t.misses;
          evictions = Atomic.get t.evictions;
        });
    t

  let shard t h = t.shards.(h land shard_mask)

  let rec find_bucket key = function
    | [] -> None
    | (k, v) :: rest -> if H.equal k key then Some v else find_bucket key rest

  let probe shard h key =
    let arr = Atomic.get shard.buckets in
    find_bucket key arr.((h lsr shard_bits) mod Array.length arr)

  (* Grow under the shard lock: rehash into a fresh array, publish it
     atomically. Readers see the old or the new array, both complete. A
     bounded shard stops growing at one bucket per entry of its slice. *)
  let maybe_grow shard =
    let arr = Atomic.get shard.buckets in
    let n = Array.length arr in
    if shard.count >= 2 * n && n < shard.slice then begin
      let bigger = Array.make (2 * n) [] in
      Array.iter
        (List.iter (fun ((k, _) as kv) ->
             let i = (spread (H.hash k) lsr shard_bits) mod (2 * n) in
             bigger.(i) <- kv :: bigger.(i)))
        arr;
      Atomic.set shard.buckets bigger
    end

  (* Add an entry known to be absent; the caller holds the shard lock. *)
  let add t shard h key v =
    if shard.count >= shard.slice then begin
      ignore (Atomic.fetch_and_add t.evictions shard.count);
      shard.count <- 0;
      Atomic.set shard.buckets (Array.make initial_buckets [])
    end;
    maybe_grow shard;
    let arr = Atomic.get shard.buckets in
    let i = (h lsr shard_bits) mod Array.length arr in
    arr.(i) <- (key, v) :: arr.(i);
    shard.count <- shard.count + 1;
    (* Republish so the plain bucket write above is ordered before any
       later lock-free read of the array. *)
    Atomic.set shard.buckets arr
end

(* Key -> (value, id) tables where the canonical value is built from the
   key on first sight. The builder runs under the shard lock (it must be
   cheap and must not re-enter the same table — interning children first
   and passing their ids in the key is the supported recursion scheme)
   so id assignment and publication are atomic: every racer sees one
   canonical value and one id per key in the table.

   Ids come from one monotonic counter per table and are never reused.
   In a bounded table a key interned again after its shard was flushed
   gets a fresh id; an entry keyed on its old id can then miss but never
   answer for another key. A lock-free probe racing a flush may still
   read the old array and return the old id, with the same guarantee.
   So only tables whose ids are memo keys may be bounded; ids that serve
   as equality witnesses need an append-only table. *)
module Keyed (H : HashedType) = struct
  module S = Sharded (H)

  type 'v t = { table : ('v * int) S.t; next : int Atomic.t }

  let create ?max_size name =
    { table = S.create ?max_size name; next = Atomic.make 0 }

  let intern t key build =
    let h = spread (H.hash key) in
    let shard = S.shard t.table h in
    match S.probe shard h key with
    | Some entry ->
      Atomic.incr t.table.hits;
      entry
    | None -> (
      Mutex.lock shard.mutex;
      (* Re-probe: the lock-free read may have raced an insert. *)
      match S.probe shard h key with
      | Some entry ->
        Mutex.unlock shard.mutex;
        Atomic.incr t.table.hits;
        entry
      | None ->
        let id = Atomic.fetch_and_add t.next 1 in
        Atomic.incr t.table.misses;
        let entry =
          match build id with
          | v -> (v, id)
          | exception e ->
            (* Keep the table consistent (the id is burned, nothing maps
               to it) and re-raise. *)
            Mutex.unlock shard.mutex;
            raise e
        in
        S.add t.table shard h key entry;
        Mutex.unlock shard.mutex;
        entry)
end

(* Key -> value memoization of a pure function. Unlike [Keyed], the
   compute runs OUTSIDE any lock: objective evaluations take milliseconds
   and must not serialize worker domains. Racing computations of the same
   key are benign — the function is pure and deterministic, so both
   produce the same value and either store wins.

   A memo holds only derived values of a pure function, so it is always
   bounded ([default_max_size] unless the table names its own cap):
   under a long-lived server this caps memory; in one-shot runs the cap
   is never reached and behavior is byte-identical. *)
module Memo (H : HashedType) = struct
  module S = Sharded (H)

  type 'v t = 'v S.t

  let default_max_size = 1 lsl 20
  let create ?(max_size = default_max_size) name = S.create ~max_size name

  let find_or_add t key f =
    let h = spread (H.hash key) in
    let shard = S.shard t h in
    match S.probe shard h key with
    | Some v ->
      Atomic.incr t.S.hits;
      v
    | None ->
      Atomic.incr t.S.misses;
      let v = f () in
      Mutex.protect shard.S.mutex (fun () ->
          if Option.is_none (S.probe shard h key) then S.add t shard h key v);
      v
end

(* Common key shapes. *)

module Int_key = struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end

module Ints_key = struct
  type t = int list

  let equal = List.equal Int.equal
  let hash l = List.fold_left (fun h x -> (h * 31) + x) (List.length l) l
end
