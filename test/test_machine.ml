(* Tests for the simulated machine (lib/machine): cache, memory simulation,
   and the parallel model. *)

open Itf_ir
module Cache = Itf_machine.Cache
module Memsim = Itf_machine.Memsim
module Parallel = Itf_machine.Parallel
module Env = Itf_exec.Env

(* One set holding every line. *)
let fully_associative size_bytes line_bytes =
  { Cache.size_bytes; line_bytes; assoc = size_bytes / line_bytes }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_geometry () =
  check_bool "bad geometry" true
    (match Cache.create { Cache.size_bytes = 100; line_bytes = 64; assoc = 1 } with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let c = Cache.create { Cache.size_bytes = 256; line_bytes = 64; assoc = 2 } in
  ignore (Cache.access c 0);
  check_int "one access" 1 (Cache.stats c).Cache.accesses

let test_cache_spatial_locality () =
  (* Sequential bytes within one line: 1 miss then hits. *)
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 1 } in
  for b = 0 to 63 do
    ignore (Cache.access c b)
  done;
  let s = Cache.stats c in
  check_int "one miss" 1 s.Cache.misses;
  check_int "63 hits" 63 s.Cache.hits

let test_cache_conflict_misses () =
  (* Two addresses mapping to the same direct-mapped set thrash... *)
  let c = Cache.create { Cache.size_bytes = 512; line_bytes = 64; assoc = 1 } in
  for _ = 1 to 10 do
    ignore (Cache.access c 0);
    ignore (Cache.access c 512)
  done;
  check_int "all misses (thrash)" 20 (Cache.stats c).Cache.misses;
  (* ...but coexist in a 2-way set. *)
  let c2 = Cache.create { Cache.size_bytes = 512; line_bytes = 64; assoc = 2 } in
  for _ = 1 to 10 do
    ignore (Cache.access c2 0);
    ignore (Cache.access c2 512)
  done;
  check_int "2 cold misses only" 2 (Cache.stats c2).Cache.misses

let test_cache_lru () =
  (* 2-way set; touch A, B, A, then C evicts B (LRU), not A. *)
  let c = Cache.create { Cache.size_bytes = 128; line_bytes = 64; assoc = 2 } in
  ignore (Cache.access c 0);
  (* A miss *)
  ignore (Cache.access c 64);
  (* B miss (same set: 1 set total) *)
  ignore (Cache.access c 0);
  (* A hit *)
  ignore (Cache.access c 128);
  (* C miss, evicts B *)
  check_bool "A still resident" true (Cache.access c 0);
  check_bool "B evicted" false (Cache.access c 64)

let test_cache_reset () =
  let c = Cache.create { Cache.size_bytes = 256; line_bytes = 64; assoc = 1 } in
  ignore (Cache.access c 0);
  Cache.reset c;
  check_int "stats cleared" 0 (Cache.stats c).Cache.accesses;
  check_bool "contents cleared" false (Cache.access c 0)

(* Fully-associative LRU is a stack algorithm: a larger cache never
   misses more on the same trace. *)
let test_lru_stack_property () =
  let st = Random.State.make [| 2026 |] in
  for _ = 1 to 20 do
    let trace =
      List.init 300 (fun _ -> Random.State.int st 40 * 64)
    in
    let misses size =
      let c = Cache.create (fully_associative size 64) in
      List.iter (fun a -> ignore (Cache.access c a)) trace;
      (Cache.stats c).Cache.misses
    in
    let m1 = misses 256 and m2 = misses 512 and m3 = misses 1024 in
    check_bool
      (Printf.sprintf "inclusion %d >= %d >= %d" m1 m2 m3)
      true
      (m1 >= m2 && m2 >= m3)
  done

(* The cache as it is specified, without the shifts and masks of
   [Cache.access]: the line is the floored quotient of the address (so
   -64..-1 is line -1 on 64-byte lines), the set its non-negative
   remainder, empty ways are tracked by an explicit flag, and
   replacement is true LRU over the ways. *)
let oracle_cache (config : Cache.config) =
  let sets = config.size_bytes / config.line_bytes / config.assoc in
  let tags = Array.make (sets * config.assoc) 0 in
  let valid = Array.make (sets * config.assoc) false in
  let ages = Array.make (sets * config.assoc) 0 in
  let clock = ref 0 in
  fun addr ->
    let line =
      let q = addr / config.line_bytes in
      if addr mod config.line_bytes < 0 then q - 1 else q
    in
    let base = (((line mod sets) + sets) mod sets) * config.assoc in
    incr clock;
    let way = ref (-1) and victim = ref 0 in
    for w = 0 to config.assoc - 1 do
      if valid.(base + w) && tags.(base + w) = line then way := w;
      if ages.(base + w) < ages.(base + !victim) then victim := w
    done;
    let hit = !way >= 0 in
    let w = if hit then !way else !victim in
    tags.(base + w) <- line;
    valid.(base + w) <- true;
    ages.(base + w) <- !clock;
    hit

(* Regression: [access] once divided by truncation, so addresses -63..63
   shared line 0, and line -1 equalled the tag that marked an empty way:
   the first access to -64 hit an empty cache. *)
let test_cache_negative_addresses () =
  let fresh () =
    Cache.create { Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 }
  in
  check_bool "first access to -64 misses" false (Cache.access (fresh ()) (-64));
  let c = fresh () in
  ignore (Cache.access c 0);
  check_bool "-40 is not on line 0" false (Cache.access c (-40));
  check_bool "-1 shares -40's line" true (Cache.access c (-1));
  check_bool "-64 shares -40's line" true (Cache.access c (-64));
  check_bool "-65 is the line below" false (Cache.access c (-65));
  (* A line count that is not a power of two takes the division path. *)
  let c = Cache.create { Cache.size_bytes = 144; line_bytes = 48; assoc = 1 } in
  check_bool "first access to -48 misses" false (Cache.access c (-48));
  check_bool "-1 shares -48's line" true (Cache.access c (-1));
  check_bool "0 is the line above" false (Cache.access c 0);
  let c = Cache.create (fully_associative 64 1) in
  check_bool "1-byte lines: first access to -1 misses" false
    (Cache.access c (-1));
  check_bool "1-byte lines: min_int misses" false (Cache.access c min_int)

let test_cache_fast_path_matches_division () =
  let geometries =
    [
      (* powers of two: lines by shift, sets by mask *)
      { Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 };
      { Cache.size_bytes = 1024; line_bytes = 64; assoc = 1 };
      { Cache.size_bytes = 512; line_bytes = 32; assoc = 4 };
      fully_associative 256 64;
      (* 48-byte lines and 3 sets: the division path *)
      { Cache.size_bytes = 144; line_bytes = 48; assoc = 1 };
      { Cache.size_bytes = 288; line_bytes = 48; assoc = 2 };
      { Cache.size_bytes = 432; line_bytes = 48; assoc = 3 };
      (* one of the two a power of two *)
      { Cache.size_bytes = 384; line_bytes = 64; assoc = 2 };
      { Cache.size_bytes = 384; line_bytes = 48; assoc = 2 };
    ]
  in
  let st = Random.State.make [| 48 |] in
  List.iter
    (fun (config : Cache.config) ->
      let c = Cache.create config and oracle = oracle_cache config in
      for k = 1 to 20_000 do
        (* mostly a small window around 0, so lines recur and hit; some
           far addresses of either sign *)
        let addr =
          if Random.State.int st 4 = 0 then
            Random.State.full_int st (1 lsl 40) - (1 lsl 39)
          else Random.State.int st 6144 - 2048
        in
        let expected = oracle addr in
        if Cache.access c addr <> expected then
          Alcotest.failf "%d/%d/%d: access %d (address %d) should %s"
            config.Cache.size_bytes config.Cache.line_bytes config.Cache.assoc
            k addr (if expected then "hit" else "miss")
      done;
      check_bool "some hits" true ((Cache.stats c).Cache.hits > 0);
      (* [stream] against per-address [access] and the oracle: random
         sites of either sign with deltas of either sign (and 0). The
         running stats after every stream, and every access's verdict on
         the per-address side, must agree. *)
      let s = Cache.create config and a = Cache.create config in
      let oracle = oracle_cache config in
      for round = 1 to 2_000 do
        let sites = 1 + Random.State.int st 4 in
        let starts =
          Array.init sites (fun _ ->
              if Random.State.int st 8 = 0 then
                Random.State.full_int st (1 lsl 40) - (1 lsl 39)
              else Random.State.int st 6144 - 2048)
        in
        let deltas = Array.init sites (fun _ -> Random.State.int st 401 - 200) in
        let count = Random.State.int st 24 in
        Cache.stream s ~starts ~deltas ~count;
        for k = 0 to count - 1 do
          Array.iteri
            (fun j start ->
              let addr = start + (k * deltas.(j)) in
              let expected = oracle addr in
              if Cache.access a addr <> expected then
                Alcotest.failf "%d/%d/%d: round %d, address %d should %s"
                  config.Cache.size_bytes config.Cache.line_bytes
                  config.Cache.assoc round addr
                  (if expected then "hit" else "miss"))
            starts
        done;
        if Cache.stats s <> Cache.stats a then
          Alcotest.failf "%d/%d/%d: stream and access stats differ after round %d"
            config.Cache.size_bytes config.Cache.line_bytes config.Cache.assoc
            round
      done;
      check_bool "streams hit" true ((Cache.stats s).Cache.hits > 0))
    geometries

(* ------------------------------------------------------------------ *)
(* Memsim: locality shape on matmul                                    *)
(* ------------------------------------------------------------------ *)

let test_memsim_row_vs_column () =
  (* Row-major traversal of a 2D array has far fewer misses than
     column-major traversal — the interchange motivation. *)
  let nest order =
    let i = Expr.var "i" and j = Expr.var "j" in
    let idx = if order = `Row then [ i; j ] else [ j; i ] in
    Nest.make
      [
        Nest.loop "i" Expr.one (Expr.int 64);
        Nest.loop "j" Expr.one (Expr.int 64);
      ]
      [ Stmt.Store ({ array = "a"; index = idx }, Expr.add i j) ]
  in
  let misses order =
    let env = Env.create () in
    Env.declare_array env "a" [ (1, 64); (1, 64) ];
    let r =
      Memsim.run
        { Cache.size_bytes = 2048; line_bytes = 64; assoc = 1 }
        env (nest order)
    in
    r.Memsim.cache.Cache.misses
  in
  let row = misses `Row and col = misses `Col in
  check_bool
    (Printf.sprintf "row (%d) at least 4x fewer misses than column (%d)" row col)
    true
    (row * 4 <= col)

let test_memsim_line_sharing () =
  let env = Env.create () in
  Env.declare_array env "a" [ (0, 7) ];
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.zero (Expr.int 7) ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "i") ]
  in
  let r =
    Memsim.run
      { Cache.size_bytes = 1024; line_bytes = 64; assoc = 1 }
      env nest
  in
  (* 8 accesses, all in one 64-byte line: 1 miss. *)
  check_int "accesses" 8 r.Memsim.cache.Cache.accesses;
  check_int "misses" 1 r.Memsim.cache.Cache.misses

(* ------------------------------------------------------------------ *)
(* Parallel model                                                      *)
(* ------------------------------------------------------------------ *)

let rect_nest kind =
  Nest.make
    [
      Nest.loop ~kind "i" Expr.one (Expr.int 16);
      Nest.loop "j" Expr.one (Expr.int 16);
    ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
          Expr.add (Expr.var "i") (Expr.var "j") );
    ]

let test_parallel_speedup () =
  let env = Env.create () in
  let seq = Parallel.time ~procs:4 env (rect_nest Nest.Do) in
  let par = Parallel.time ~procs:4 env (rect_nest Nest.Pardo) in
  check_bool "pardo speeds up on 4 procs" true (par < seq /. 3.);
  let s = Parallel.speedup ~procs:4 env (rect_nest Nest.Pardo) in
  check_bool (Printf.sprintf "speedup %.2f near 4" s) true (s > 3.5 && s <= 4.01)

let test_parallel_do_is_flat () =
  let env = Env.create () in
  let t1 = Parallel.time ~procs:1 env (rect_nest Nest.Do) in
  let t8 = Parallel.time ~procs:8 env (rect_nest Nest.Do) in
  check_bool "sequential nest gains nothing" true (abs_float (t1 -. t8) < 1e-9)

let test_parallel_load_imbalance () =
  (* Triangular pardo: round-robin over rows of decreasing length keeps
     the imbalance mild, but speedup must stay below the ideal. *)
  let nest =
    Nest.make
      [
        Nest.loop ~kind:Nest.Pardo "i" Expr.one (Expr.int 16);
        Nest.loop "j" (Expr.var "i") (Expr.int 16);
      ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "j" ] }, Expr.var "i") ]
  in
  let env = Env.create () in
  let s = Parallel.speedup ~procs:8 env nest in
  check_bool (Printf.sprintf "triangular speedup %.2f in (2, 8)" s) true
    (s > 2. && s < 8.)

let test_parallel_overhead_saturates () =
  (* With heavy spawn overhead relative to the work, more processors stop
     helping. *)
  let nest =
    Nest.make
      [ Nest.loop ~kind:Nest.Pardo "i" Expr.one (Expr.int 4) ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "i") ]
  in
  let env = Env.create () in
  let s4 = Parallel.speedup ~spawn_overhead:50. ~procs:4 env nest in
  check_bool "overhead kills speedup" true (s4 < 1.5)

let test_parallel_idle_procs () =
  (* Processors past the trip count only idle: 10^8 of them simulate
     exactly like one per iteration, on both backends. *)
  let nest = rect_nest Nest.Pardo in
  let env = Env.create () in
  Env.declare_array env "a" [ (1, 16); (1, 16) ];
  List.iter
    (fun (backend, time) ->
      Alcotest.(check (float 0.))
        (backend ^ ": procs 10^8 = procs trip count")
        (time ~procs:16) (time ~procs:100_000_000))
    [
      ("interp", fun ~procs -> Parallel.time ~procs env nest);
      ("compiled", fun ~procs -> Parallel.time_compiled ~procs env nest);
    ]

let test_body_cost () =
  check_bool "body cost counts ops and accesses" true
    (Parallel.body_cost (rect_nest Nest.Do) >= 2)

let () =
  Alcotest.run "machine"
    [
      ( "cache",
        [
          Alcotest.test_case "geometry" `Quick test_cache_geometry;
          Alcotest.test_case "spatial locality" `Quick test_cache_spatial_locality;
          Alcotest.test_case "conflicts vs associativity" `Quick
            test_cache_conflict_misses;
          Alcotest.test_case "LRU replacement" `Quick test_cache_lru;
          Alcotest.test_case "reset" `Quick test_cache_reset;
          Alcotest.test_case "LRU stack property" `Quick test_lru_stack_property;
          Alcotest.test_case "negative addresses floor to their line" `Quick
            test_cache_negative_addresses;
          Alcotest.test_case "fast path equals division path" `Quick
            test_cache_fast_path_matches_division;
        ] );
      ( "memsim",
        [
          Alcotest.test_case "row vs column traversal" `Quick
            test_memsim_row_vs_column;
          Alcotest.test_case "8-byte elements share a line" `Quick
            test_memsim_line_sharing;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "speedup" `Quick test_parallel_speedup;
          Alcotest.test_case "sequential flat" `Quick test_parallel_do_is_flat;
          Alcotest.test_case "load imbalance" `Quick test_parallel_load_imbalance;
          Alcotest.test_case "overhead saturation" `Quick
            test_parallel_overhead_saturates;
          Alcotest.test_case "idle processors" `Quick
            test_parallel_idle_procs;
          Alcotest.test_case "body cost" `Quick test_body_cost;
        ] );
    ]
