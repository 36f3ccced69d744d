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

   Stats are exact: ids and hit/miss/eviction counts come from atomic
   counters, never from per-shard fields summed racily. Dense ids are
   handed out in interning order; they are stable for the life of the
   process and valid as hash keys and equality witnesses, but NOT as an
   ordering — intern order depends on scheduling, so total orders stay
   structural (see DESIGN.md sections 10 and 13). *)

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

(* [Ints_key]-style fold hashes cluster in the low bits; one xor-shift
   spreads them so both the shard choice and the bucket choice see
   well-mixed bits. *)
let spread h =
  let h = h land max_int in
  h lxor (h lsr 17)

(* Key -> (value, id) tables where the canonical value is built from the
   key on first sight. The builder runs under the shard lock (it must be
   cheap and must not re-enter the same table — interning children first
   and passing their ids in the key is the supported recursion scheme)
   so id assignment and publication are atomic: every racer sees one
   canonical value per key.

   Bucket lists are immutable; insertion replaces the [Atomic] array
   cell's head under the shard lock and then re-publishes the array with
   an [Atomic.set], so lock-free readers that observe the new list also
   observe the fully built entry. A lock-free probe that misses is never
   trusted: it re-probes under the shard lock before interning, so the
   only cost of a stale read is one mutex acquisition. *)
module Keyed (H : HashedType) = struct
  type 'v shard = {
    mutex : Mutex.t;
    buckets : (H.t * ('v * int)) list array Atomic.t;
    mutable count : int;  (* entries in this shard; shard-lock protected *)
  }

  type 'v t = {
    shards : 'v shard array;
    next : int Atomic.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
    name : string;
  }

  let create name =
    let t =
      {
        shards =
          Array.init nshards (fun _ ->
              {
                mutex = Mutex.create ();
                buckets = Atomic.make (Array.make initial_buckets []);
                count = 0;
              });
        next = Atomic.make 0;
        hits = Atomic.make 0;
        misses = Atomic.make 0;
        name;
      }
    in
    register (fun () ->
        {
          name = t.name;
          size = Atomic.get t.next;
          hits = Atomic.get t.hits;
          misses = Atomic.get t.misses;
          evictions = 0;
        });
    t

  let rec find_bucket key = function
    | [] -> None
    | (k, entry) :: rest ->
      if H.equal k key then Some entry else find_bucket key rest

  let probe shard h key =
    let arr = Atomic.get shard.buckets in
    find_bucket key arr.((h lsr shard_bits) mod Array.length arr)

  (* Grow under the shard lock: rehash into a fresh array, publish it
     atomically. Readers see the old or the new array, both complete. *)
  let maybe_grow shard h_of_key =
    let arr = Atomic.get shard.buckets in
    let n = Array.length arr in
    if shard.count >= 2 * n then begin
      let bigger = Array.make (2 * n) [] in
      Array.iter
        (List.iter (fun ((k, _) as kv) ->
             let i = (h_of_key k lsr shard_bits) mod (2 * n) in
             bigger.(i) <- kv :: bigger.(i)))
        arr;
      Atomic.set shard.buckets bigger
    end

  let intern t key build =
    let h = spread (H.hash key) in
    let shard = t.shards.(h land shard_mask) in
    match probe shard h key with
    | Some entry ->
      Atomic.incr t.hits;
      entry
    | None -> (
      Mutex.lock shard.mutex;
      (* Re-probe: the lock-free read may have raced an insert. *)
      match probe shard h key with
      | Some entry ->
        Mutex.unlock shard.mutex;
        Atomic.incr t.hits;
        entry
      | None ->
        let id = Atomic.fetch_and_add t.next 1 in
        Atomic.incr t.misses;
        let entry =
          match build id with
          | v -> (v, id)
          | exception e ->
            (* Keep the table consistent (the id is burned, nothing maps
               to it) and re-raise. *)
            Mutex.unlock shard.mutex;
            raise e
        in
        maybe_grow shard (fun k -> spread (H.hash k));
        let arr = Atomic.get shard.buckets in
        let i = (h lsr shard_bits) mod Array.length arr in
        arr.(i) <- (key, entry) :: arr.(i);
        shard.count <- shard.count + 1;
        (* Republish so the plain bucket write above is ordered before
           any later lock-free read of the array. *)
        Atomic.set shard.buckets arr;
        Mutex.unlock shard.mutex;
        entry)

  let size t = Atomic.get t.next
end

(* Self-keyed hash-consing: the key IS the value; the first representative
   interned becomes canonical for its equivalence class. *)
module Make (H : HashedType) = struct
  module K = Keyed (H)

  type table = H.t K.t

  let create = K.create
  let intern t v = K.intern t v (fun _ -> v)
  let size = K.size
end

(* Key -> value memoization of a pure function. Unlike [Keyed], the
   compute runs OUTSIDE any lock: objective evaluations take milliseconds
   and must not serialize worker domains. Racing computations of the same
   key are benign — the function is pure and deterministic, so both
   produce the same value and either store wins.

   Unlike the interning tables — whose ids must stay stable for the life
   of the process, so they can never evict — a memo holds only derived
   values of a pure function and may drop entries freely. [max_size]
   bounds the table, enforced per shard at [max_size / nshards]: when an
   insert would push a shard past its slice, that shard is flushed whole
   (a generational clear: O(1) amortized, no LRU bookkeeping on the hot
   path) and every later probe of its keys just recomputes. Under a
   long-lived server this caps memory; in one-shot runs the cap is never
   reached and behavior is byte-identical. *)
module Memo (H : HashedType) = struct
  type 'v shard = {
    mutex : Mutex.t;
    buckets : (H.t * 'v) list array Atomic.t;
    mutable count : int;  (* entries in this shard; shard-lock protected *)
  }

  type 'v t = {
    shards : 'v shard array;
    max_per_shard : int;
    hits : int Atomic.t;
    misses : int Atomic.t;
    evictions : int Atomic.t;
    name : string;
  }

  let default_max_size = 1 lsl 20

  let create ?(max_size = default_max_size) name =
    let t =
      {
        shards =
          Array.init nshards (fun _ ->
              {
                mutex = Mutex.create ();
                buckets = Atomic.make (Array.make initial_buckets []);
                count = 0;
              });
        max_per_shard = max 1 (max 1 max_size / nshards);
        hits = Atomic.make 0;
        misses = Atomic.make 0;
        evictions = Atomic.make 0;
        name;
      }
    in
    register (fun () ->
        {
          name = t.name;
          size = Array.fold_left (fun acc s -> acc + s.count) 0 t.shards;
          hits = Atomic.get t.hits;
          misses = Atomic.get t.misses;
          evictions = Atomic.get t.evictions;
        });
    t

  let rec find_bucket key = function
    | [] -> None
    | (k, v) :: rest -> if H.equal k key then Some v else find_bucket key rest

  let probe shard h key =
    let arr = Atomic.get shard.buckets in
    find_bucket key arr.((h lsr shard_bits) mod Array.length arr)

  let maybe_grow shard limit =
    let arr = Atomic.get shard.buckets in
    let n = Array.length arr in
    if shard.count >= 2 * n && n < limit then begin
      let bigger = Array.make (2 * n) [] in
      Array.iter
        (List.iter (fun ((k, _) as kv) ->
             let i = (spread (H.hash k) lsr shard_bits) mod (2 * n) in
             bigger.(i) <- kv :: bigger.(i)))
        arr;
      Atomic.set shard.buckets bigger
    end

  let find_or_add t key f =
    let h = spread (H.hash key) in
    let shard = t.shards.(h land shard_mask) in
    match probe shard h key with
    | Some v ->
      Atomic.incr t.hits;
      v
    | None ->
      Atomic.incr t.misses;
      let v = f () in
      Mutex.lock shard.mutex;
      (if Option.is_none (probe shard h key) then begin
         if shard.count >= t.max_per_shard then begin
           (* Generational flush of this shard alone: its keys recompute,
              the other shards keep their entries. *)
           ignore (Atomic.fetch_and_add t.evictions shard.count);
           shard.count <- 0;
           Atomic.set shard.buckets (Array.make 8 [])
         end;
         maybe_grow shard t.max_per_shard;
         let arr = Atomic.get shard.buckets in
         let i = (h lsr shard_bits) mod Array.length arr in
         arr.(i) <- (key, v) :: arr.(i);
         shard.count <- shard.count + 1;
         Atomic.set shard.buckets arr
       end);
      Mutex.unlock shard.mutex;
      v

  let size t = Array.fold_left (fun acc s -> acc + s.count) 0 t.shards
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
