type config = { size_bytes : int; line_bytes : int; assoc : int }

let fully_associative ~size_bytes ~line_bytes =
  { size_bytes; line_bytes; assoc = size_bytes / line_bytes }

type stats = { accesses : int; hits : int; misses : int; evictions : int }

type t = {
  config : config;
  sets : int;
  line_shift : int;  (** log2 [line_bytes], or -1 if not a power of two *)
  set_mask : int;  (** [sets - 1] if [sets] is a power of two, else -1 *)
  two_way : bool;
      (** 2 ways, power-of-two sets and lines of at least 2 bytes: the
          geometry {!access2} serves *)
  tags : int array;
      (** sets x assoc; [empty_tag] in every empty way, meaningful only
          where [ages > 0] on the general path *)
  ages : int array;  (** LRU timestamps; 0 = empty way *)
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
  mutable evictions : int;
}

(* No line of a cache with lines of 2 bytes or more is [min_int]: a line
   is [addr asr line_shift] with [line_shift >= 1]. The 2-way probe relies
   on that to test a tag without its age. *)
let empty_tag = min_int

let create config =
  if config.line_bytes <= 0 || config.size_bytes <= 0 || config.assoc <= 0 then
    invalid_arg "Cache.create: non-positive geometry";
  if config.size_bytes mod (config.line_bytes * config.assoc) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of line * assoc";
  let sets = config.size_bytes / config.line_bytes / config.assoc in
  let pow2 n = n land (n - 1) = 0 in
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  let line_shift =
    if pow2 config.line_bytes then log2 config.line_bytes else -1
  in
  let set_mask = if pow2 sets then sets - 1 else -1 in
  {
    config;
    sets;
    line_shift;
    set_mask;
    two_way = config.assoc = 2 && line_shift >= 1 && set_mask >= 0;
    tags = Array.make (sets * config.assoc) empty_tag;
    ages = Array.make (sets * config.assoc) 0;
    clock = 0;
    accesses = 0;
    hits = 0;
    evictions = 0;
  }

let config_of t = t.config

(* A line is [floor (addr / line_bytes)], so addresses -line_bytes..-1
   make line -1, never line 0. [asr] floors, and [land] with a power-of-
   two mask is the non-negative remainder, for either sign. A way is
   empty while its age is 0: every access stamps a positive clock, and
   no line value can stand for "empty" because with 1-byte lines every
   int is some address's line. *)
let access_general t addr =
  let line =
    if t.line_shift >= 0 then addr asr t.line_shift
    else
      let lb = t.config.line_bytes in
      let q = addr / lb in
      if addr < 0 && q * lb <> addr then q - 1 else q
  in
  let set =
    if t.set_mask >= 0 then line land t.set_mask
    else ((line mod t.sets) + t.sets) mod t.sets
  in
  let base = set * t.config.assoc in
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let hit_way = ref (-1) in
  for w = 0 to t.config.assoc - 1 do
    if t.tags.(base + w) = line && t.ages.(base + w) > 0 then hit_way := w
  done;
  if !hit_way >= 0 then begin
    t.hits <- t.hits + 1;
    t.ages.(base + !hit_way) <- t.clock;
    true
  end
  else begin
    (* Evict the least recently used way (empty ways have age 0). *)
    let victim = ref 0 in
    for w = 1 to t.config.assoc - 1 do
      if t.ages.(base + w) < t.ages.(base + !victim) then victim := w
    done;
    if t.ages.(base + !victim) > 0 then t.evictions <- t.evictions + 1;
    t.tags.(base + !victim) <- line;
    t.ages.(base + !victim) <- t.clock;
    false
  end

(* The same decision as [access_general] for the [two_way] geometry: the
   hit test needs no age (an empty way holds [empty_tag], which no line
   equals), a hit in way 0 is checked first (at most one way holds a
   line), and the victim is way 1 only when it is strictly older, the
   general path's first-minimum tie-break. *)
let[@inline] access2 t addr =
  let line = addr asr t.line_shift in
  let b = (line land t.set_mask) lsl 1 in
  let clock = t.clock + 1 in
  t.clock <- clock;
  t.accesses <- t.accesses + 1;
  let tags = t.tags and ages = t.ages in
  if Array.unsafe_get tags b = line then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set ages b clock;
    true
  end
  else if Array.unsafe_get tags (b + 1) = line then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set ages (b + 1) clock;
    true
  end
  else begin
    let v =
      if Array.unsafe_get ages (b + 1) < Array.unsafe_get ages b then b + 1
      else b
    in
    if Array.unsafe_get tags v <> empty_tag then t.evictions <- t.evictions + 1;
    Array.unsafe_set tags v line;
    Array.unsafe_set ages v clock;
    false
  end

let access t addr = if t.two_way then access2 t addr else access_general t addr

let stream t ~starts ~deltas ~count =
  let n = Array.length starts in
  if Array.length deltas <> n then
    invalid_arg "Cache.stream: starts and deltas differ in length";
  if t.two_way then
    for k = 0 to count - 1 do
      for s = 0 to n - 1 do
        ignore
          (access2 t
             (Array.unsafe_get starts s + (k * Array.unsafe_get deltas s)))
      done
    done
  else
    for k = 0 to count - 1 do
      for s = 0 to n - 1 do
        ignore
          (access_general t
             (Array.unsafe_get starts s + (k * Array.unsafe_get deltas s)))
      done
    done

let stats t =
  {
    accesses = t.accesses;
    hits = t.hits;
    misses = t.accesses - t.hits;
    evictions = t.evictions;
  }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) empty_tag;
  Array.fill t.ages 0 (Array.length t.ages) 0;
  t.clock <- 0;
  t.accesses <- 0;
  t.hits <- 0;
  t.evictions <- 0
