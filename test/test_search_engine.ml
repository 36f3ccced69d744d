(* Tests for the incremental/memoized/multicore search engine (lib/opt):
   with an unbounded beam it must find the exhaustive optimum, be
   bit-identical across domain counts, and actually avoid work. *)

open Itf_ir
module Search = Itf_opt.Search
module Engine = Itf_opt.Engine
module Costmodel = Itf_opt.Costmodel
module Framework = Itf_core.Framework
module Sequence = Itf_core.Sequence

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let seq_testable =
  Alcotest.testable Sequence.pp (fun a b -> Sequence.compare a b = 0)

let column_major () =
  Nest.make
    [
      Nest.loop "i" Expr.one (Expr.var "n");
      Nest.loop "j" Expr.one (Expr.var "n");
    ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "j"; Expr.var "i" ] },
          Expr.add (Expr.var "i") (Expr.var "j") );
    ]

let stencil () =
  Nest.make
    [
      Nest.loop "i" (Expr.int 2) (Expr.var "n");
      Nest.loop "j" (Expr.int 2) (Expr.var "n");
    ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
          Expr.add
            (Expr.Load
               { array = "a"; index = [ Expr.(sub (var "i") (int 1)); Expr.var "j" ] })
            (Expr.Load
               { array = "a"; index = [ Expr.var "i"; Expr.(sub (var "j") (int 1)) ] })
        );
    ]

let cases =
  lazy
    [
      ( "column-major/locality",
        column_major (),
        Search.cache_misses ~params:[ ("n", 24) ] () );
      ( "matmul/locality",
        Builders.matmul (),
        Search.cache_misses ~params:[ ("n", 12) ] () );
      ( "matmul/parallel",
        Builders.matmul (),
        Search.parallel_time ~procs:4 ~params:[ ("n", 8) ] () );
      ( "stencil/parallel",
        stencil (),
        Search.parallel_time ~procs:4 ~params:[ ("n", 8) ] () );
    ]

(* Exhaustive oracle: the minimum score over every sequence of at most
   [steps] moves from [Search.moves] whose every prefix is legal and
   scoreable — the engine only extends scored nodes, so the enumeration
   follows the same rule. Each sequence is applied from the root with
   [Framework.apply], independent of the engine's incremental prefix
   states, canonical-sequence cache and tier-0 screen. *)
let exhaustive_min ~steps nest objective =
  let vectors = Itf_dep.Analysis.vectors nest in
  let score seq =
    match Framework.apply ~vectors nest seq with
    | Error _ -> None
    | Ok result -> (
      match objective result with
      | s when Float.is_nan s -> None
      | s -> Some (s, result)
      | exception _ -> None)
  in
  let rec go seq (s, result) k =
    if k = 0 then s
    else
      List.fold_left
        (fun best t ->
          let seq = seq @ [ t ] in
          match score seq with
          | None -> best
          | Some sr -> Float.min best (go seq sr (k - 1)))
        s
        (Search.moves nest ~depth:(Nest.depth result.Framework.nest))
  in
  Option.map (fun sr -> go [] sr steps) (score [])

let oracle_cases =
  let params = [ ("n", 8) ] in
  let locality =
    ( "locality",
      (fun ~memo -> Search.cache_misses ~memo ~params ()),
      Costmodel.Locality
        {
          config =
            { Itf_machine.Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 };
          elem_bytes = 8;
          params;
        } )
  in
  let parallel =
    ( "parallel",
      (fun ~memo -> Search.parallel_time ~memo ~procs:4 ~params ()),
      Costmodel.Parallel { procs = 4; spawn_overhead = 2.0; params } )
  in
  List.concat_map
    (fun (name, nest) ->
      List.map
        (fun (obj, mk, spec) -> (name ^ "/" ^ obj, nest, mk, spec))
        [ locality; parallel ])
    [
      ("column-major", column_major ());
      ("matmul", Builders.matmul ());
      ("stencil", stencil ());
    ]

(* With a beam wider than any step, the engine — untiered, and tiered with
   an uncapped screen — must return the exhaustive minimum, a sequence
   that replays from the root to that score, and a winner equivalent to
   the source nest. The oracle scores with an unmemoized objective, so a
   stale memo entry cannot hide on both sides. *)
let test_matches_exhaustive_oracle () =
  let steps = 2 and params = [ ("n", 8) ] in
  List.iter
    (fun (label, nest, mk, spec) ->
      let expected =
        match exhaustive_min ~steps nest (mk ~memo:false) with
        | Some s -> s
        | None -> Alcotest.failf "%s: root unscoreable" label
      in
      let objective = mk ~memo:true in
      List.iter
        (fun (mode, tier0) ->
          let label = label ^ " " ^ mode in
          match
            Engine.search ~beam:100_000 ~steps ~domains:1 ?tier0 nest objective
          with
          | None -> Alcotest.failf "%s: engine returned nothing" label
          | Some o ->
            Alcotest.(check (float 0.0))
              (label ^ ": exhaustive minimum") expected o.Engine.score;
            let replayed =
              match Framework.apply nest o.Engine.sequence with
              | Ok r -> objective r
              | Error _ -> Alcotest.failf "%s: winner does not replay" label
            in
            Alcotest.(check (float 0.0))
              (label ^ ": replayed score") o.Engine.score replayed;
            check_bool (label ^ ": winner equivalent to source") true
              (Builders.equivalent ~params ~orders:[ `Forward; `Reverse ] nest
                 o.Engine.result.Framework.nest))
        [ ("untiered", None); ("tiered", Some spec) ])
    oracle_cases

(* Parallel evaluation must not change the answer: order-preserving merge
   plus the total candidate order make any domain count bit-identical. *)
let test_parallel_deterministic () =
  List.iter
    (fun (label, nest, objective) ->
      match
        ( Engine.search ~beam:4 ~steps:2 ~domains:1 nest objective,
          Engine.search ~beam:4 ~steps:2 ~domains:4 nest objective )
      with
      | None, None -> ()
      | Some _, None | None, Some _ ->
        Alcotest.failf "%s: domain count changed scoreability" label
      | Some seq_, Some par_ ->
        Alcotest.check seq_testable
          (label ^ ": same sequence") seq_.Engine.sequence par_.Engine.sequence;
        Alcotest.check seq_testable
          (label ^ ": same canonical") seq_.Engine.canonical
          par_.Engine.canonical;
        Alcotest.(check (float 0.0))
          (label ^ ": same score") seq_.Engine.score par_.Engine.score;
        check_bool (label ^ ": same transformed nest") true
          (compare seq_.Engine.result.Itf_core.Framework.nest
             par_.Engine.result.Itf_core.Framework.nest
          = 0))
    (Lazy.force cases)

(* A two-step search revisits transformations constantly (reversal twice is
   the identity, interchange pairs cancel, ...): the canonical-sequence
   cache must be hit and the incremental prefix states must save template
   applications relative to from-root replays. *)
let test_caches_and_savings () =
  let nest = column_major () in
  let objective = Search.cache_misses ~params:[ ("n", 24) ] () in
  let new_ =
    match Engine.search ~beam:4 ~steps:2 ~domains:1 nest objective with
    | Some o -> o
    | None -> Alcotest.fail "engine returned nothing"
  in
  let s = new_.Engine.stats in
  check_bool "legality cache hit" true (s.Itf_opt.Stats.legality_cache_hits > 0);
  check_bool "score cache hit" true (s.Itf_opt.Stats.score_cache_hits > 0);
  check_bool "saved template applications" true
    (s.Itf_opt.Stats.template_applications_saved > 0);
  check_bool "explored something" true (s.Itf_opt.Stats.nodes_explored > 10);
  (* The untiered search's screen is open: every explored candidate is a
     cache hit, illegal, or scored exactly — none is screened out, even
     with more legal candidates per step than [exact_topk]. *)
  check_int "open screen prunes nothing" 0 s.Itf_opt.Stats.tier0_pruned;
  check_int "every legal candidate scored exactly"
    s.Itf_opt.Stats.nodes_explored
    (s.Itf_opt.Stats.objective_evaluations + s.Itf_opt.Stats.score_cache_hits
   + s.Itf_opt.Stats.illegal)

(* The domain pool is order-preserving and exception-safe. *)
let test_pool_map () =
  let pool = Itf_opt.Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Itf_opt.Pool.shutdown pool)
    (fun () ->
      let input = Array.init 100 Fun.id in
      let out = Itf_opt.Pool.map pool (fun x -> x * x) input in
      Alcotest.(check (array int))
        "order preserved"
        (Array.map (fun x -> x * x) input)
        out;
      check_int "empty input" 0 (Array.length (Itf_opt.Pool.map pool Fun.id [||]));
      match Itf_opt.Pool.map pool (fun x -> if x = 5 then failwith "boom" else x) input with
      | _ -> Alcotest.fail "exception not propagated"
      | exception Failure msg -> Alcotest.(check string) "exception" "boom" msg)

let () =
  Alcotest.run "search_engine"
    [
      ( "engine",
        [
          Alcotest.test_case "matches exhaustive oracle" `Quick
            test_matches_exhaustive_oracle;
          Alcotest.test_case "parallel is deterministic" `Quick
            test_parallel_deterministic;
          Alcotest.test_case "caches hit, work saved" `Quick
            test_caches_and_savings;
          Alcotest.test_case "pool map" `Quick test_pool_map;
        ] );
    ]
