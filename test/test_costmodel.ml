(* Tests for the tier-0 analytic cost model (lib/opt/costmodel.ml):

   - admissibility: the tier-0 [bound] must never exceed the exact
     simulated objective — on the frozen corpus, on seeded random nests,
     and across transformed variants of each. This is the soundness
     contract branch-and-bound pruning relies on.
   - ranking: tier-0 [score] must rank candidates well enough that the
     exact winner survives a top-K screen (the engine's --exact-topk),
     checked as Spearman rank correlation against the exact scores and
     as winner-recall on one-step candidate populations.
   - end-to-end: a tiered engine run (small exact_topk) must pick the
     same winner as the untiered engine on the bench kernels. *)

open Itf_ir
module Search = Itf_opt.Search
module Engine = Itf_opt.Engine
module Costmodel = Itf_opt.Costmodel
module Framework = Itf_core.Framework
module Sequence = Itf_core.Sequence
module Gen = Itf_check.Gen
module Repro = Itf_check.Repro

let check_bool = Alcotest.(check bool)

let cache_cfg =
  { Itf_machine.Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 }

let corpus_dir () =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_cases () =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.sort compare
  |> List.map (fun f -> Repro.load (Filename.concat dir f))

let gen_cases n =
  let st = Random.State.make [| 0x5eed |] in
  List.init n (fun _ -> Gen.case st)

(* Score both the identity result and (when legal) the case's transformed
   result: the transformed ones exercise subscript analysis through the
   generated initialization statements. *)
let results_of (c : Gen.case) =
  let id = match Framework.apply c.nest [] with Ok r -> [ r ] | Error _ -> [] in
  let tr =
    match Framework.apply c.nest c.seq with Ok r -> [ r ] | Error _ -> []
  in
  id @ tr

(* (estimate, exact) pairs for every scoreable result of every case, for
   both objectives. *)
let pairs () =
  let cases = corpus_cases () @ gen_cases 100 in
  List.concat_map
    (fun (c : Gen.case) ->
      let specs =
        [
          ( "locality",
            Costmodel.Locality
              { config = cache_cfg; elem_bytes = 8; params = c.params },
            Search.cache_misses ~params:c.params () );
          ( "parallel",
            Costmodel.Parallel
              { procs = 4; spawn_overhead = 2.0; params = c.params },
            Search.parallel_time ~procs:4 ~params:c.params () );
        ]
      in
      List.concat_map
        (fun (label, spec, exact_obj) ->
          let est = Costmodel.estimate spec in
          List.filter_map
            (fun r ->
              match exact_obj r with
              | exception _ -> None
              | x when Float.is_nan x -> None
              | x -> Some (label, est r, x))
            (results_of c))
        specs)
    cases

let test_admissible () =
  let ps = pairs () in
  check_bool "have a meaningful population" true (List.length ps > 100);
  List.iteri
    (fun i (label, (e : Costmodel.estimate), exact) ->
      if e.bound > exact +. 1e-6 then
        Alcotest.failf "pair %d (%s): bound %g exceeds exact score %g" i label
          e.bound exact;
      check_bool "score sane" true (Float.is_nan e.score = false))
    ps

(* Spearman rank correlation (average ranks on ties). *)
let spearman xs ys =
  let rank v =
    let a = Array.of_list v in
    let idx = Array.init (Array.length a) Fun.id in
    Array.sort (fun i j -> Float.compare a.(i) a.(j)) idx;
    let r = Array.make (Array.length a) 0. in
    let i = ref 0 in
    while !i < Array.length a do
      let j = ref !i in
      while !j < Array.length a - 1 && a.(idx.(!j + 1)) = a.(idx.(!i)) do
        incr j
      done;
      let avg = float (!i + !j) /. 2. in
      for k = !i to !j do
        r.(idx.(k)) <- avg
      done;
      i := !j + 1
    done;
    r
  in
  let rx = rank xs and ry = rank ys in
  let n = Array.length rx in
  let mean a = Array.fold_left ( +. ) 0. a /. float n in
  let mx = mean rx and my = mean ry in
  let num = ref 0. and dx = ref 0. and dy = ref 0. in
  for i = 0 to n - 1 do
    num := !num +. ((rx.(i) -. mx) *. (ry.(i) -. my));
    dx := !dx +. ((rx.(i) -. mx) ** 2.);
    dy := !dy +. ((ry.(i) -. my) ** 2.)
  done;
  if !dx = 0. || !dy = 0. then 1. else !num /. sqrt (!dx *. !dy)

let test_rank_correlation () =
  let ps = pairs () in
  List.iter
    (fun want ->
      let sel = List.filter (fun (l, _, _) -> l = want) ps in
      let est = List.map (fun (_, (e : Costmodel.estimate), _) -> e.score) sel in
      let exact = List.map (fun (_, _, x) -> x) sel in
      let rho = spearman est exact in
      check_bool
        (Printf.sprintf "%s: rank correlation %.3f >= 0.7 over %d pairs" want
           rho (List.length sel))
        true (rho >= 0.7))
    [ "locality"; "parallel" ]

(* Winner recall on one-step candidate populations of the bench kernels:
   the exact best candidate must sit inside the tier-0 top-K for the K the
   engine defaults to — otherwise screening would change winners. *)
let one_step_population nest =
  let depth = Nest.depth nest in
  List.filter_map
    (fun t ->
      match Framework.apply nest [ t ] with Ok r -> Some r | Error _ -> None)
    (Search.moves nest ~depth)

let lu () =
  Nest.make
    [
      Nest.loop "k" Expr.one (Expr.var "n");
      Nest.loop "i" Expr.(add (var "k") Expr.one) (Expr.var "n");
      Nest.loop "j" Expr.(add (var "k") Expr.one) (Expr.var "n");
    ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
          Expr.sub
            (Expr.Load { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] })
            (Expr.mul
               (Expr.Load
                  { array = "a"; index = [ Expr.var "i"; Expr.var "k" ] })
               (Expr.Load
                  { array = "a"; index = [ Expr.var "k"; Expr.var "j" ] })) );
    ]

let screen_cases () =
  [
    ( "matmul/locality",
      Builders.matmul (),
      Costmodel.Locality
        { config = cache_cfg; elem_bytes = 8; params = [ ("n", 16) ] },
      (Search.cache_misses ~params:[ ("n", 16) ] () : Search.objective) );
    ( "stencil/locality",
      Builders.stencil (),
      Costmodel.Locality
        { config = cache_cfg; elem_bytes = 8; params = [ ("n", 16) ] },
      Search.cache_misses ~params:[ ("n", 16) ] () );
    ( "lu/parallel",
      lu (),
      Costmodel.Parallel
        { procs = 4; spawn_overhead = 2.0; params = [ ("n", 10) ] },
      Search.parallel_time ~procs:4 ~params:[ ("n", 10) ] () );
  ]

let test_winner_recall () =
  List.iter
    (fun (label, nest, spec, exact_obj) ->
      let est = Costmodel.estimate spec in
      let scored =
        List.filter_map
          (fun r ->
            match exact_obj r with
            | exception _ -> None
            | x when Float.is_nan x -> None
            | x -> Some ((est r).Costmodel.score, x))
          (one_step_population nest)
      in
      check_bool (label ^ ": population non-trivial") true
        (List.length scored > 3);
      let best_exact =
        List.fold_left (fun acc (_, x) -> Float.min acc x) Float.infinity
          scored
      in
      let by_est = List.sort compare scored in
      let topk = List.filteri (fun i _ -> i < Engine.default_exact_topk) by_est in
      check_bool
        (Printf.sprintf "%s: exact winner inside tier-0 top-%d" label
           Engine.default_exact_topk)
        true
        (List.exists (fun (_, x) -> x = best_exact) topk))
    (screen_cases ())

(* End-to-end: the tiered engine (screening + branch-and-bound on) must
   return the same winner as the untiered engine. *)
let test_same_winner_end_to_end () =
  List.iter
    (fun (label, nest, spec, exact_obj) ->
      match
        ( Engine.search ~beam:4 ~steps:2 ~domains:1 nest exact_obj,
          Engine.search ~beam:4 ~steps:2 ~domains:1 ~tier0:spec nest exact_obj
        )
      with
      | None, None -> ()
      | Some _, None | None, Some _ ->
        Alcotest.failf "%s: tiering changed scoreability" label
      | Some a, Some b ->
        Alcotest.(check (float 0.0))
          (label ^ ": same best score") a.Engine.score b.Engine.score;
        check_bool (label ^ ": same canonical winner") true
          (Sequence.compare a.Engine.canonical b.Engine.canonical = 0);
        check_bool (label ^ ": tier-0 actually pruned exact evals") true
          (b.Engine.stats.Itf_opt.Stats.objective_evaluations
          < a.Engine.stats.Itf_opt.Stats.objective_evaluations))
    (screen_cases ())

(* The spec fingerprint keys parent expansions, so it must be
   injective and self-delimiting: over both spec kinds and parameter
   lists that share a prefix or whose name's character codes equal
   other fields, no two specs get one fingerprint and no fingerprint is
   a proper prefix of another. *)
let test_fingerprint_injective () =
  let q = "\007\tq" in
  let params = [ []; [ ("n", 8) ]; [ ("n", 8); (q, 7) ]; [ (q, 8) ] ] in
  let keys =
    List.concat_map
      (fun params ->
        List.map Costmodel.fingerprint
          [
            Costmodel.Locality { config = cache_cfg; elem_bytes = 8; params };
            Costmodel.Parallel { procs = 4; spawn_overhead = 2.0; params };
          ])
      params
  in
  Alcotest.(check int) "distinct specs get distinct fingerprints"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  let rec prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a, y :: b -> x = y && prefix a b
    | _ :: _, [] -> false
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b && prefix a b then
            Alcotest.fail "a fingerprint is a prefix of another")
        keys)
    keys

let () =
  (* Calibration aid: COSTMODEL_DUMP=1 prints every (label, estimate,
     exact) triple of the correlation corpus as TSV instead of running
     the suite — pipe into sort to see which nests the estimator
     misranks. *)
  (match Sys.getenv_opt "COSTMODEL_DUMP" with
  | Some _ ->
    List.iter
      (fun (l, (e : Costmodel.estimate), x) ->
        Printf.printf "%s\t%g\t%g\t%g\n" l e.score e.bound x)
      (pairs ());
    exit 0
  | None -> ());
  Alcotest.run "costmodel"
    [
      ( "costmodel",
        [
          Alcotest.test_case "bound is admissible" `Quick test_admissible;
          Alcotest.test_case "ranks like the exact objective" `Quick
            test_rank_correlation;
          Alcotest.test_case "exact winner survives top-K screen" `Quick
            test_winner_recall;
          Alcotest.test_case "tiered engine keeps the winner" `Quick
            test_same_winner_end_to_end;
          Alcotest.test_case "fingerprint is injective" `Quick
            test_fingerprint_injective;
        ] );
    ]
