(* Tests for the statement-level extension (lib/ext): statement dependence
   graphs, loop distribution and fusion — the paper's Section 6 future
   work. *)

open Itf_ir
module Analysis = Itf_dep.Analysis
module Program = Itf_ext.Program
module Statement = Itf_ext.Statement
module Env = Itf_exec.Env

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ld a ix : Expr.t = Expr.Load { array = a; index = ix }
let st a ix rhs = Stmt.Store ({ array = a; index = ix }, rhs)
let i_ = Expr.var "i"

(* Oracle: run a program on deterministically filled arrays. *)
let run_program ?(pardo_order = `Forward) ~params (p : Program.t) =
  let env = Env.create () in
  List.iter (fun (v, x) -> Env.set_scalar env v x) params;
  let arities =
    List.sort_uniq compare (List.concat_map Nest.array_arities p)
  in
  List.iter
    (fun (a, arity) ->
      Env.declare_array env a (List.init arity (fun _ -> (-16, 32)));
      Builders.fill_array a (Env.array_data env a))
    arities;
  List.iter (Itf_exec.Interp.run ~pardo_order env) p;
  Env.snapshot env

let program_equivalent ?pardo_order ~params p1 p2 =
  run_program ~params p1 = run_program ?pardo_order ~params p2

(* ------------------------------------------------------------------ *)
(* Statement dependence graph                                          *)
(* ------------------------------------------------------------------ *)

let two_stmt_nest () =
  (* S0: a(i) = b(i) + 1 ; S1: c(i) = a(i-1) * 2 : carried flow S0 -> S1 *)
  Nest.make
    [ Nest.loop "i" Expr.one (Expr.var "n") ]
    [
      st "a" [ i_ ] (Expr.add (ld "b" [ i_ ]) Expr.one);
      st "c" [ i_ ] (Expr.mul (ld "a" [ Expr.sub i_ Expr.one ]) (Expr.int 2));
    ]

let test_statement_edges () =
  let edges = Analysis.statement_edges (two_stmt_nest ()) in
  check_bool "carried S0->S1" true
    (List.exists
       (fun e -> e.Analysis.src = 0 && e.Analysis.dst = 1 && e.Analysis.carried)
       edges);
  check_bool "no S1->S0" true
    (not (List.exists (fun e -> e.Analysis.src = 1 && e.Analysis.dst = 0) edges))

let test_statement_edges_loop_independent () =
  (* S0 writes a(i), S1 reads a(i): same-iteration flow, not carried. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [ st "a" [ i_ ] (ld "b" [ i_ ]); st "c" [ i_ ] (ld "a" [ i_ ]) ]
  in
  let edges = Analysis.statement_edges nest in
  check_bool "loop-independent S0->S1" true
    (List.exists
       (fun e ->
         e.Analysis.src = 0 && e.Analysis.dst = 1 && not e.Analysis.carried)
       edges)

(* ------------------------------------------------------------------ *)
(* Distribution                                                        *)
(* ------------------------------------------------------------------ *)

let test_distribute_splits () =
  let p = Statement.distribute (two_stmt_nest ()) in
  check_int "two nests" 2 (List.length p);
  (* source statement's nest first (it feeds the second) *)
  check_bool "S0 first" true
    (match (List.hd p).Nest.body with
    | [ Stmt.Store ({ array = "a"; _ }, _) ] -> true
    | _ -> false);
  check_bool "semantics preserved" true
    (program_equivalent ~params:[ ("n", 9) ] [ two_stmt_nest () ] p)

let test_distribute_cycle_stays () =
  (* a(i) = c(i-1) ; c(i) = a(i-1): mutual recurrence, one component. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        st "a" [ i_ ] (ld "c" [ Expr.sub i_ Expr.one ]);
        st "c" [ i_ ] (ld "a" [ Expr.sub i_ Expr.one ]);
      ]
  in
  check_int "single component" 1 (List.length (Statement.distribute nest))

let test_distribute_reversed_order () =
  (* S0 reads what S1 wrote LAST iteration: edge S1 -> S0 carried; the
     distribution must emit S1's nest first. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        st "a" [ i_ ] (ld "c" [ Expr.sub i_ Expr.one ]);
        st "c" [ i_ ] (ld "b" [ i_ ]);
      ]
  in
  let p = Statement.distribute nest in
  check_int "two nests" 2 (List.length p);
  check_bool "c-nest first" true
    (match (List.hd p).Nest.body with
    | [ Stmt.Store ({ array = "c"; _ }, _) ] -> true
    | _ -> false);
  check_bool "semantics preserved" true
    (program_equivalent ~params:[ ("n", 9) ] [ nest ] p)

let test_distribute_enables_parallelization () =
  (* After distribution, the recurrence-free component can be
     parallelized even though the fused loop cannot. *)
  let nest = two_stmt_nest () in
  check_bool "fused loop not parallelizable" false
    (Itf_core.Queries.parallelizable_loops ~depth:1 (Analysis.vectors nest) = [ 0 ]);
  let p = Statement.distribute nest in
  check_bool "every distributed nest parallelizable" true
    (List.for_all
       (fun n -> Itf_core.Queries.parallelizable_loops ~depth:1 (Analysis.vectors n) = [ 0 ])
       p)

let test_distribute_three_way () =
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        st "a" [ i_ ] (ld "b" [ i_ ]);
        st "c" [ i_ ] (ld "a" [ Expr.sub i_ Expr.one ]);
        st "d" [ i_ ] (ld "c" [ Expr.sub i_ Expr.one ]);
      ]
  in
  let p = Statement.distribute nest in
  check_int "three nests" 3 (List.length p);
  check_bool "semantics preserved" true
    (program_equivalent ~params:[ ("n", 8) ] [ nest ] p)

let test_distribute_guarded () =
  (* A guarded statement is one distribution unit; its accesses still
     build edges. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        st "a" [ i_ ] (ld "b" [ i_ ]);
        Stmt.Guard
          {
            lhs = ld "b" [ i_ ];
            rel = Stmt.Gt;
            rhs = Expr.zero;
            body = [ st "c" [ i_ ] (ld "a" [ Expr.sub i_ Expr.one ]) ];
          };
      ]
  in
  let p = Statement.distribute nest in
  check_int "two nests" 2 (List.length p);
  check_bool "a-producer first" true
    (match (List.hd p).Nest.body with
    | [ Stmt.Store ({ array = "a"; _ }, _) ] -> true
    | _ -> false);
  check_bool "semantics preserved" true
    (program_equivalent ~params:[ ("n", 9) ] [ nest ] p)

(* ------------------------------------------------------------------ *)
(* Fusion                                                              *)
(* ------------------------------------------------------------------ *)

let mk1 body = Nest.make [ Nest.loop "i" Expr.one (Expr.var "n") ] body

let test_fuse_legal () =
  let n1 = mk1 [ st "a" [ i_ ] (ld "b" [ i_ ]) ] in
  let n2 = mk1 [ st "c" [ i_ ] (ld "a" [ i_ ]) ] in
  (match Statement.fuse_all [ n1; n2 ] with
  | [ fused ] ->
    check_int "two statements" 2 (List.length fused.Nest.body);
    check_bool "semantics preserved" true
      (program_equivalent ~params:[ ("n", 9) ] [ n1; n2 ] [ fused ])
  | p -> Alcotest.failf "expected fusion into one nest, got %d" (List.length p));
  (* backward same-iteration read (a(i-1)) is also fine *)
  let n3 = mk1 [ st "c" [ i_ ] (ld "a" [ Expr.sub i_ Expr.one ]) ] in
  check_int "backward read fuses" 1 (List.length (Statement.fuse_all [ n1; n3 ]))

let test_fuse_preventing () =
  (* second loop reads a(i+1), which the first loop writes at a later
     iteration: fusing would read the new value too early. *)
  let n1 = mk1 [ st "a" [ i_ ] (ld "b" [ i_ ]) ] in
  let n2 = mk1 [ st "c" [ i_ ] (ld "a" [ Expr.add i_ Expr.one ]) ] in
  check_int "kept apart" 2 (List.length (Statement.fuse_all [ n1; n2 ]));
  (* had it fused, the oracle would catch the difference *)
  check_bool "fusing would be wrong" false
    (program_equivalent ~params:[ ("n", 9) ] [ n1; n2 ]
       [ { n1 with Nest.body = n1.Nest.body @ n2.Nest.body } ])

let test_fuse_header_mismatch () =
  let n1 = mk1 [ st "a" [ i_ ] (ld "b" [ i_ ]) ] in
  let n2 =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.sub (Expr.var "n") Expr.one) ]
      [ st "c" [ i_ ] (ld "a" [ i_ ]) ]
  in
  check_int "rejected" 2 (List.length (Statement.fuse_all [ n1; n2 ]))

let test_fuse_all_roundtrip () =
  (* distribute then fuse_all: semantics preserved; when no fusion-
     preventing dependence re-forms, the result refuses into one nest. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [ st "a" [ i_ ] (ld "b" [ i_ ]); st "c" [ i_ ] (ld "a" [ i_ ]) ]
  in
  let p = Statement.distribute nest in
  let refused = Statement.fuse_all p in
  check_int "refused into one nest" 1 (List.length refused);
  check_bool "semantics preserved" true
    (program_equivalent ~params:[ ("n", 9) ] [ nest ] refused)

let () =
  Alcotest.run "ext"
    [
      ( "statement-graph",
        [
          Alcotest.test_case "carried edge" `Quick test_statement_edges;
          Alcotest.test_case "loop-independent edge" `Quick
            test_statement_edges_loop_independent;
        ] );
      ( "distribute",
        [
          Alcotest.test_case "splits independent statements" `Quick
            test_distribute_splits;
          Alcotest.test_case "keeps recurrence cycles together" `Quick
            test_distribute_cycle_stays;
          Alcotest.test_case "orders components by dependence" `Quick
            test_distribute_reversed_order;
          Alcotest.test_case "enables parallelization" `Quick
            test_distribute_enables_parallelization;
          Alcotest.test_case "three-way chain" `Quick test_distribute_three_way;
          Alcotest.test_case "guarded statement" `Quick test_distribute_guarded;
        ] );
      ( "fuse",
        [
          Alcotest.test_case "legal fusion" `Quick test_fuse_legal;
          Alcotest.test_case "fusion-preventing dependence" `Quick
            test_fuse_preventing;
          Alcotest.test_case "header mismatch" `Quick test_fuse_header_mismatch;
          Alcotest.test_case "distribute/fuse roundtrip" `Quick
            test_fuse_all_roundtrip;
        ] );
    ]
