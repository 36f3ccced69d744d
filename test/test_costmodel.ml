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
     same winner as the untiered engine on the bench kernels.
   - oracles: every estimate of every legal one- and two-move candidate
     is bit-equal to the estimator kept in [Tier0_oracle], and the
     header-only parallel simulator to the interpreted one. *)

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
    (Builders.moves ~depth)

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

(* ------------------------------------------------------------------ *)
(* The shared estimator and the header-only simulator against oracles   *)
(* ------------------------------------------------------------------ *)

module Legality = Itf_core.Legality
module Parallel = Itf_machine.Parallel

type sweep_totals = {
  mutable candidates : int;  (** the roots and their legal 1-2 move candidates *)
  mutable estimates : int;  (** estimates compared with the oracle *)
  mutable times : int;  (** [time_compiled] runs compared with [time] *)
  mutable unsimulated : int;  (** candidates [Parallel.time] raised on *)
}

let sweep_roots = ref 0

let bits (e : Costmodel.estimate) =
  (Int64.bits_of_float e.Costmodel.score, Int64.bits_of_float e.Costmodel.bound)

(* The root and every legal candidate one and two [Search.move_set] from
   it, grown as the engine grows them (one state per parent, extended by
   each move), scored as the engine scores them: one estimator per root,
   size and objective, fed the candidate state's reference forms, which
   it shares with, maps from or computes apart from its parent's. Every
   estimate equals the estimator this one replaced ({!Tier0_oracle}) bit
   for bit, and at the first size, the header-only parallel simulator
   equals the interpreted one ([Parallel.time]) bit for bit, at an
   integer spawn overhead (closed-form outer levels) and another. *)
let sweep_root totals ~what ~sizes root =
  incr sweep_roots;
  let root_id = !sweep_roots in
  let vectors = Itf_dep.Analysis.vectors root in
  let estimators =
    List.concat_map
      (fun params ->
        List.map
          (fun spec ->
            let estimate = Costmodel.estimate spec in
            (spec, fun refs result -> estimate ~refs result))
          [
            Costmodel.Locality { config = cache_cfg; elem_bytes = 8; params };
            Costmodel.Parallel { procs = 4; spawn_overhead = 2.0; params };
          ])
      sizes
  in
  let env =
    let env = Itf_exec.Env.create () in
    List.iter (fun (v, x) -> Itf_exec.Env.set_scalar env v x) (List.hd sizes);
    env
  in
  let candidate seq st =
    match Legality.verdict st with
    | Legality.Legal { nest; vectors = vs; _ } ->
      totals.candidates <- totals.candidates + 1;
      let refs =
        match Legality.references st with
        | Some (refs, _) -> refs
        | None -> Itf_bounds.Access.of_nest nest
      in
      let result =
        { Framework.nest; vectors = vs; derivation = 0; root = root_id }
      in
      List.iter
        (fun (spec, estimate) ->
          totals.estimates <- totals.estimates + 1;
          if
            bits (estimate (fun () -> refs) result)
            <> bits (Tier0_oracle.estimate spec result)
          then
            Alcotest.failf "%s, %a: a tier-0 estimate differs from the oracle"
              what Sequence.pp seq)
        estimators;
      List.iter
        (fun (procs, spawn_overhead) ->
          match Parallel.time ~spawn_overhead ~procs env nest with
          | exception _ -> totals.unsimulated <- totals.unsimulated + 1
          | t ->
            totals.times <- totals.times + 1;
            let tc =
              match Parallel.time_compiled ~spawn_overhead ~procs env nest with
              | tc -> tc
              | exception e ->
                Alcotest.failf "%s, %a: time_compiled raised %s" what
                  Sequence.pp seq (Printexc.to_string e)
            in
            if Int64.bits_of_float t <> Int64.bits_of_float tc then
              Alcotest.failf
                "%s, %a, procs %d, overhead %g: time %.17g <> time_compiled \
                 %.17g"
                what Sequence.pp seq procs spawn_overhead t tc)
        [ (4, 2.0); (3, 0.5) ];
      true
    | _ -> false
  in
  let moves depth = Builders.moves ~depth in
  let st0 = Legality.start ~vectors root in
  ignore (candidate [] st0);
  List.iter
    (fun m1 ->
      let s1 = Legality.extend st0 m1 in
      if candidate [ m1 ] s1 then
        match Legality.verdict s1 with
        | Legality.Legal { nest = nest1; _ } ->
          List.iter
            (fun m2 -> ignore (candidate [ m1; m2 ] (Legality.extend s1 m2)))
            (moves (Nest.depth nest1))
        | _ -> ())
    (moves (Nest.depth root))

let nest_files () =
  List.concat_map
    (fun dir ->
      let dir =
        if Sys.file_exists (Filename.concat ".." dir) then Filename.concat ".." dir
        else dir
      in
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".loop")
      |> List.sort compare
      |> List.map (fun f ->
             ( f,
               (Itf_lang.Parser.parse
                  (In_channel.with_open_bin (Filename.concat dir f)
                     In_channel.input_all))
                 .Itf_lang.Parser.nest )))
    [ Filename.concat "examples" "nests"; Filename.concat "bench" (Filename.concat "e2e" "nests") ]

(* Examples and e2e nests at n = 8 to 32, the corpus and 1,000 [Gen]
   nests; the totals are pinned. *)
let test_oracle_sweep () =
  let totals = { candidates = 0; estimates = 0; times = 0; unsimulated = 0 } in
  List.iter
    (fun (file, root) ->
      sweep_root totals ~what:file
        ~sizes:(List.map (fun n -> [ ("n", n) ]) [ 8; 12; 16; 24; 32 ])
        root)
    (nest_files ());
  List.iter
    (fun (c : Gen.case) ->
      sweep_root totals ~what:"corpus case" ~sizes:[ c.params ] c.nest)
    (corpus_cases ());
  let st = Random.State.make [| 7 |] in
  for k = 1 to 1000 do
    let c = Gen.case st in
    sweep_root totals
      ~what:(Printf.sprintf "Gen case %d" k)
      ~sizes:[ c.Gen.params ] c.Gen.nest
  done;
  let check_int = Alcotest.(check int) in
  check_int "candidates" 103_224 totals.candidates;
  check_int "estimates" 223_680 totals.estimates;
  check_int "parallel times" 206_164 totals.times;
  check_int "candidates the interpreter cannot time" 284 totals.unsimulated

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
          Alcotest.test_case "estimates and parallel times equal their oracles"
            `Slow test_oracle_sweep;
        ] );
    ]
