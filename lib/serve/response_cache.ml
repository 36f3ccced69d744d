(* A bounded LRU over opaque values, keyed by a request's fingerprint, with
   a spelling index beside it.

   Capacity is small (the server's default is 64), so recency is a
   per-entry stamp and eviction an O(cap) scan: no intrusive list. One
   mutex per cache guards every operation, so the stamps never tear and
   the counters never lose an update when several workers probe at once.

   The spelling index maps a request's text key to the fingerprint its
   nest was answered under, so an exact repeat of a request's text is
   found without parsing its nest. It holds at most [cap] spellings and
   is cleared when full. A spelling never goes stale in a harmful way:
   nest ids are never reused, so the fingerprint it names can only name
   the same nest, and once that entry is evicted the spelling finds
   nothing. *)

type 'a t = {
  tbl : (string, 'a * int ref) Hashtbl.t;
  spellings : (string, string) Hashtbl.t;
  cap : int;
  mutex : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  spellings : int;
}

let create cap =
  {
    tbl = Hashtbl.create 64;
    spellings = Hashtbl.create 64;
    cap = max 0 cap;
    mutex = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap

(* The helpers below run with [t.mutex] held. *)
let remember (t : _ t) spelling key =
  if
    (not (Hashtbl.mem t.spellings spelling))
    && Hashtbl.length t.spellings >= t.cap
  then Hashtbl.clear t.spellings;
  Hashtbl.replace t.spellings spelling key

let touch (t : _ t) stamp =
  t.tick <- t.tick + 1;
  stamp := t.tick;
  t.hits <- t.hits + 1

let find (t : _ t) ?spelling key =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (v, stamp) ->
        touch t stamp;
        Option.iter (fun s -> remember t s key) spelling;
        Some v
      | None ->
        t.misses <- t.misses + 1;
        None)

let find_spelling (t : _ t) spelling =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.spellings spelling with
      | None -> None
      | Some key -> (
        match Hashtbl.find_opt t.tbl key with
        | None -> None
        | Some (v, stamp) ->
          touch t stamp;
          Some (key, v)))

let add (t : _ t) ?spelling key v =
  Mutex.protect t.mutex (fun () ->
      if t.cap > 0 then begin
        if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.cap
        then begin
          let victim =
            Hashtbl.fold
              (fun k (_, stamp) acc ->
                match acc with
                | Some (_, oldest) when oldest <= !stamp -> acc
                | _ -> Some (k, !stamp))
              t.tbl None
          in
          Option.iter
            (fun (k, _) ->
              Hashtbl.remove t.tbl k;
              t.evictions <- t.evictions + 1)
            victim
        end;
        t.tick <- t.tick + 1;
        Hashtbl.replace t.tbl key (v, ref t.tick);
        Option.iter (fun s -> remember t s key) spelling
      end)

let counters (t : _ t) =
  Mutex.protect t.mutex (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = Hashtbl.length t.tbl;
        spellings = Hashtbl.length t.spellings;
      })
