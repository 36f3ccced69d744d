(* Tests for the incremental/memoized/multicore search engine (lib/opt):
   with an unbounded beam it must find the exhaustive optimum, be
   bit-identical across domain counts, answer a warm search exactly as
   a cold one, and actually avoid work. *)

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

(* The two objectives at n = 8, each with its matching tier-0 spec. *)
let locality, parallel =
  let params = [ ("n", 8) ] in
  ( ( "locality",
      (fun ~memo -> Search.cache_misses ~memo ~params ()),
      Costmodel.Locality
        {
          config =
            { Itf_machine.Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 };
          elem_bytes = 8;
          params;
        } ),
    ( "parallel",
      (fun ~memo -> Search.parallel_time ~memo ~procs:4 ~params ()),
      Costmodel.Parallel { procs = 4; spawn_overhead = 2.0; params } ) )

let oracle_cases =
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

(* A 2-deep nest no other test searches; [suffix] renames its arrays, so
   each suffix is a nest the process-wide memos have never seen. The
   recurrence along [j] makes some moves illegal, so rejections are
   exercised too. Renaming every array by one common suffix keeps their
   sorted order, so it changes no part of the answer. *)
let fresh_nest suffix =
  let a = "wc_a" ^ suffix and b = "wc_b" ^ suffix in
  let v = Expr.var in
  Nest.make
    [ Nest.loop "i" Expr.one (v "n"); Nest.loop "j" (Expr.int 2) (v "n") ]
    [
      Stmt.Store
        ( { array = a; index = [ v "j"; v "i" ] },
          Expr.add
            (Expr.Load
               { array = a; index = [ Expr.(sub (var "j") (int 1)); v "i" ] })
            (Expr.Load { array = b; index = [ v "j"; v "i" ] }) );
    ]

(* Everything deterministic an outcome reports, one line per item: the
   winner, every deterministic {!Stats} counter, the rejections and the
   tier-0 decisions (floats in hex, so equal means bit-identical). *)
let outcome_lines (o : Engine.outcome) =
  let seq = Format.asprintf "%a" Sequence.pp in
  let s = o.Engine.stats in
  [
    "sequence " ^ seq o.Engine.sequence;
    "canonical " ^ seq o.Engine.canonical;
    Printf.sprintf "score %h" o.Engine.score;
    Printf.sprintf
      "nodes %d duplicates %d legality_hits %d score_hits %d illegal %d \
       applications %d saved %d exact %d tier0 %d pruned %d domains %d \
       threshold %d"
      s.Itf_opt.Stats.nodes_explored s.duplicates_pruned s.legality_cache_hits
      s.score_cache_hits s.illegal s.template_applications
      s.template_applications_saved s.objective_evaluations
      s.tier0_evaluations s.tier0_pruned s.domains s.work_threshold;
  ]
  @ List.map
      (fun (r : Engine.rejection) ->
        Format.asprintf "rejected %s: %a" (seq r.candidate) Engine.pp_cause
          r.cause)
      o.Engine.rejections
  @ List.map
      (fun (d : Engine.decision) ->
        Printf.sprintf "decided %s: %h %h %s" (seq d.candidate) d.tier0_score
          d.tier0_bound
          (Engine.verdict_label d.verdict))
      o.Engine.decisions

let legality_hits () =
  match
    List.find_opt
      (fun s -> s.Itf_mat.Hashcons.name = "opt.legality")
      (Itf_mat.Hashcons.stats ())
  with
  | Some s -> s.Itf_mat.Hashcons.hits
  | None -> Alcotest.fail "no opt.legality table registered"

(* The process-wide legality memo must not change any answer: a warm
   search equals the cold one on the same nest, tiered and untiered, on
   1 and 2 domains, and so does a search whose memo entries another
   objective's frontier filled. *)
let test_warm_equals_cold () =
  let search ?tier0 ~domains (_, mk, _) nest =
    match
      Engine.search ~beam:3 ~steps:2 ~domains ~provenance:true ?tier0 nest
        (mk ~memo:true)
    with
    | Some o -> outcome_lines o
    | None -> Alcotest.fail "engine returned nothing"
  in
  let hits0 = legality_hits () in
  List.iter
    (fun ((name, _, spec) as obj) ->
      List.iter
        (fun (mode, tier0, domains) ->
          let label = Printf.sprintf "%s %s, %d domains" name mode domains in
          let nest = fresh_nest (Printf.sprintf "_%s_%s%d" name mode domains) in
          let cold = search ?tier0 ~domains obj nest in
          check_bool (label ^ ": some candidate is rejected") true
            (List.exists (String.starts_with ~prefix:"rejected") cold);
          if name = "parallel" then
            check_bool (label ^ ": the winner transforms the nest") false
              (List.mem "sequence " cold);
          let hits = legality_hits () in
          let warm = search ?tier0 ~domains obj nest in
          check_bool (label ^ ": warm search hit the legality memo") true
            (legality_hits () > hits);
          Alcotest.(check (list string)) (label ^ ": warm == cold") cold warm)
        [
          ("untiered", None, 1);
          ("untiered", None, 2);
          ("tiered", Some spec, 1);
          ("tiered", Some spec, 2);
        ])
    [ locality; parallel ];
  (* Cross-objective: on [x] the locality search fills the memo the
     parallel search then reads, on [y] the other way round; each warm
     answer must equal the other nest's cold one. *)
  let tiered ((_, _, spec) as obj) nest =
    search ~tier0:spec ~domains:1 obj nest
  in
  let x = fresh_nest "_x" and y = fresh_nest "_y" in
  let cold_loc = tiered locality x in
  let warm_par = tiered parallel x in
  let cold_par = tiered parallel y in
  let warm_loc = tiered locality y in
  Alcotest.(check (list string)) "parallel after locality == cold" cold_par
    warm_par;
  Alcotest.(check (list string)) "locality after parallel == cold" cold_loc
    warm_loc;
  check_bool "legality memo hits grew" true (legality_hits () > hits0)

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
          Alcotest.test_case "warm search equals cold" `Quick
            test_warm_equals_cold;
          Alcotest.test_case "pool map" `Quick test_pool_map;
        ] );
    ]
