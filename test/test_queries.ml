(* Tests for dependence queries (Itf_core.Queries) and the hyperplane
   wavefront synthesizer (Itf_opt.Hyperplane). *)

open Itf_ir
module Depvec = Itf_dep.Depvec
module Queries = Itf_core.Queries
module Hyperplane = Itf_opt.Hyperplane
module F = Itf_core.Framework
module Intmat = Itf_mat.Intmat

let v = Depvec.of_string
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* The loops that may carry a single vector are those the query does not
   report parallelizable. *)
let carriers ~depth d =
  List.filter
    (fun k -> not (List.mem k (Queries.parallelizable_loops ~depth [ d ])))
    (List.init depth Fun.id)

let test_carried_level () =
  Alcotest.(check (list int)) "(0,0,+) carried by 2" [ 2 ] (carriers ~depth:3 (v "(0,0,+)"));
  Alcotest.(check (list int)) "(1,-1) carried by 0" [ 0 ] (carriers ~depth:2 (v "(1,-1)"));
  Alcotest.(check (list int)) "(0+,1) indefinite" [ 0; 1 ] (carriers ~depth:2 (v "(0+,1)"));
  Alcotest.(check (list int)) "(0,0) never carried" [] (carriers ~depth:2 (v "(0,0)"))

let test_may_be_carried_by () =
  let may_be_carried_by d k = List.mem k (carriers ~depth:(Array.length d) d) in
  check_bool "(0,+) by 1" true (may_be_carried_by (v "(0,+)") 1);
  check_bool "(0,+) not by 0" false (may_be_carried_by (v "(0,+)") 0);
  check_bool "(0+,1) by both" true
    (may_be_carried_by (v "(0+,1)") 0 && may_be_carried_by (v "(0+,1)") 1);
  check_bool "(+,*) only by 0" true
    (may_be_carried_by (v "(+,*)") 0 && not (may_be_carried_by (v "(+,*)") 1))

let test_parallelizable () =
  let d = [ v "(0,0,+)" ] in
  Alcotest.(check (list int)) "matmul: i and j parallel" [ 0; 1 ]
    (Queries.parallelizable_loops ~depth:3 d);
  check_bool "k not parallel" false (List.mem 2 (Queries.parallelizable_loops ~depth:3 d));
  check_bool "innermost not vectorizable" false
    (Queries.vectorizable_innermost ~depth:3 d);
  check_bool "after interchange k out, vectorizable" true
    (Queries.vectorizable_innermost ~depth:3 [ v "(+,0,0)" ])

let test_parallelizable_matches_legality () =
  (* The query must agree with the full framework verdict on matmul. *)
  let nest = Builders.matmul () in
  let d = Itf_dep.Analysis.vectors nest in
  List.iter
    (fun k ->
      check_bool
        (Printf.sprintf "loop %d agreement" k)
        (List.mem k (Queries.parallelizable_loops ~depth:3 d))
        (Builders.is_legal ~vectors:d nest
           [ Itf_core.Template.parallelize_one ~n:3 k ]))
    [ 0; 1; 2 ]

let test_fully_permutable () =
  (* matmul is fully permutable everywhere *)
  check_bool "matmul 0..2" true
    (Queries.fully_permutable ~depth:3 [ v "(0,0,+)" ] ~i:0 ~j:2);
  (* the skewed stencil band (1,0),(1,1) wait: (1,-1) breaks inner band *)
  check_bool "(1,-1) band 0..1 ok (carried by 0? no: nonneg check fails)"
    false
    (Queries.fully_permutable ~depth:2 [ v "(1,-1)" ] ~i:0 ~j:1);
  check_bool "(1,-1) inner band alone ok (carried outside by loop 0)" true
    (Queries.fully_permutable ~depth:2 [ v "(1,-1)" ] ~i:1 ~j:1);
  check_bool "(1,1) fully permutable" true
    (Queries.fully_permutable ~depth:2 [ v "(1,1)" ] ~i:0 ~j:1)

(* ------------------------------------------------------------------ *)
(* Hyperplane                                                          *)
(* ------------------------------------------------------------------ *)

let test_min_dot_via_find () =
  (* For the stencil D = {(1,0),(0,1)} the smallest hyperplane is (1,1). *)
  (match Hyperplane.find_hyperplane ~depth:2 [ v "(1,0)"; v "(0,1)" ] with
  | Some h -> Alcotest.(check (array int)) "h = (1,1)" [| 1; 1 |] h
  | None -> Alcotest.fail "expected a hyperplane");
  (* (1,-1) and (0,1) need h = (2,1): h.(1,-1) = 1, h.(0,1) = 1. *)
  (match Hyperplane.find_hyperplane ~depth:2 [ v "(1,-1)"; v "(0,1)" ] with
  | Some h -> Alcotest.(check (array int)) "h = (2,1)" [| 2; 1 |] h
  | None -> Alcotest.fail "expected a hyperplane");
  (* a direction value that can be arbitrarily negative kills it *)
  Alcotest.(check bool) "(*,1) hopeless with nonneg h... on comp 0" true
    (match Hyperplane.find_hyperplane ~depth:2 [ v "(*,1)" ] with
    | Some h -> h.(0) = 0 (* must zero out the unbounded component *)
    | None -> false)

let test_completion () =
  List.iter
    (fun h ->
      let m = Hyperplane.completion h in
      check_bool "unimodular" true (Intmat.is_unimodular m);
      Alcotest.(check (array int)) "first row is h" h (Intmat.row m 0))
    [ [| 1; 1 |]; [| 2; 1 |]; [| 3; 2; 1 |]; [| 1; 0; 0 |]; [| 5; 3 |]; [| 0; 1; 0 |] ];
  Alcotest.check_raises "gcd must be 1"
    (Invalid_argument "Hyperplane.completion: gcd of entries must be 1")
    (fun () -> ignore (Hyperplane.completion [| 2; 4 |]))

let test_wavefront_stencil () =
  let nest = Builders.stencil () in
  match Hyperplane.wavefront nest with
  | None -> Alcotest.fail "stencil must have a wavefront"
  | Some (seq, result) ->
    check_int "two templates" 2 (List.length seq);
    (* all inner loops pardo, outer sequential *)
    (match result.F.nest.Nest.loops with
    | outer :: rest ->
      check_bool "outer do" true (outer.Nest.kind = Nest.Do);
      check_bool "inners pardo" true
        (List.for_all (fun (l : Nest.loop) -> l.Nest.kind = Nest.Pardo) rest)
    | [] -> Alcotest.fail "no loops");
    (* and it is semantically correct under adversarial pardo order *)
    check_bool "wavefront equivalent" true
      (Builders.equivalent ~params:[ ("n", 12) ]
         ~orders:[ `Forward; `Reverse; `Shuffle 5 ]
         (Builders.stencil ()) result.F.nest)

let test_wavefront_matmul () =
  (* matmul: D = {(0,0,+)}: hyperplane (0,0,1) -> outer loop becomes k,
     inner loops (completions of the basis) run parallel. *)
  let nest = Builders.matmul () in
  match Hyperplane.wavefront nest with
  | None -> Alcotest.fail "matmul must have a wavefront"
  | Some (_, result) ->
    check_bool "equivalent" true
      (Builders.equivalent ~params:[ ("n", 6) ]
         ~orders:[ `Forward; `Shuffle 2 ] (Builders.matmul ()) result.F.nest)

let test_wavefront_none_for_sequential_chain () =
  (* a(i) = a(i-1) on a single loop: depth < 2 -> None *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i" ] },
            Expr.Load { array = "a"; index = [ Expr.(sub (var "i") (int 1)) ] } );
      ]
  in
  check_bool "no wavefront for 1-deep" true (Hyperplane.wavefront nest = None)

let () =
  Alcotest.run "queries"
    [
      ( "queries",
        [
          Alcotest.test_case "carried level" `Quick test_carried_level;
          Alcotest.test_case "may be carried by" `Quick test_may_be_carried_by;
          Alcotest.test_case "parallelizable loops" `Quick test_parallelizable;
          Alcotest.test_case "agreement with legality" `Quick
            test_parallelizable_matches_legality;
          Alcotest.test_case "fully permutable bands" `Quick test_fully_permutable;
        ] );
      ( "hyperplane",
        [
          Alcotest.test_case "hyperplane search" `Quick test_min_dot_via_find;
          Alcotest.test_case "unimodular completion" `Quick test_completion;
          Alcotest.test_case "stencil wavefront end-to-end" `Quick
            test_wavefront_stencil;
          Alcotest.test_case "matmul wavefront" `Quick test_wavefront_matmul;
          Alcotest.test_case "no wavefront cases" `Quick
            test_wavefront_none_for_sequential_chain;
        ] );
    ]
