(* Tests for the statement-level extension (lib/ext): statement dependence
   graphs, loop distribution, fusion, and unrolling — the paper's Section 6
   future work. *)

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
  Program.run ~pardo_order env p;
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
    (Itf_core.Queries.parallelizable (Analysis.vectors nest) 0);
  let p = Statement.distribute nest in
  check_bool "every distributed nest parallelizable" true
    (List.for_all
       (fun n -> Itf_core.Queries.parallelizable (Analysis.vectors n) 0)
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
  (match Statement.fuse n1 n2 with
  | Ok fused ->
    check_int "two statements" 2 (List.length fused.Nest.body);
    check_bool "semantics preserved" true
      (program_equivalent ~params:[ ("n", 9) ] [ n1; n2 ] [ fused ])
  | Error e -> Alcotest.failf "expected fusion to succeed: %s" e);
  (* backward same-iteration read (a(i-1)) is also fine *)
  let n3 = mk1 [ st "c" [ i_ ] (ld "a" [ Expr.sub i_ Expr.one ]) ] in
  check_bool "backward read fuses" true
    (match Statement.fuse n1 n3 with Ok _ -> true | Error _ -> false)

let test_fuse_preventing () =
  (* second loop reads a(i+1), which the first loop writes at a later
     iteration: fusing would read the new value too early. *)
  let n1 = mk1 [ st "a" [ i_ ] (ld "b" [ i_ ]) ] in
  let n2 = mk1 [ st "c" [ i_ ] (ld "a" [ Expr.add i_ Expr.one ]) ] in
  (match Statement.fuse n1 n2 with
  | Ok fused ->
    (* if it had fused, the oracle would catch the difference *)
    check_bool "would be wrong" false
      (program_equivalent ~params:[ ("n", 9) ] [ n1; n2 ] [ fused ]);
    Alcotest.fail "fusion should have been rejected"
  | Error e -> check_bool "diagnostic" true (Builders.contains ~sub:"dependence" e))

let test_fuse_header_mismatch () =
  let n1 = mk1 [ st "a" [ i_ ] (ld "b" [ i_ ]) ] in
  let n2 =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.sub (Expr.var "n") Expr.one) ]
      [ st "c" [ i_ ] (ld "a" [ i_ ]) ]
  in
  check_bool "rejected" true
    (match Statement.fuse n1 n2 with Error _ -> true | Ok _ -> false)

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

(* ------------------------------------------------------------------ *)
(* Unrolling                                                           *)
(* ------------------------------------------------------------------ *)

let test_unroll_basic () =
  let nest = mk1 [ st "a" [ i_ ] (Expr.mul i_ i_) ] in
  let p = Statement.unroll ~factor:3 nest in
  check_int "main + remainder" 2 (List.length p);
  check_int "main body replicated" 3 (List.length (List.hd p).Nest.body);
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf "equivalent at n=%d" n)
        true
        (program_equivalent ~params:[ ("n", n) ] [ nest ] p))
    [ 0; 1; 2; 3; 7; 9; 12 ]

let test_unroll_strided_and_negative () =
  let strided =
    Nest.make
      [ Nest.loop ~step:(Expr.int 2) "i" Expr.one (Expr.var "n") ]
      [ st "a" [ i_ ] (Expr.add i_ Expr.one) ]
  in
  let reversed =
    Nest.make
      [ Nest.loop ~step:(Expr.int (-1)) "i" (Expr.var "n") Expr.one ]
      [ st "a" [ i_ ] (ld "a" [ Expr.min_ (Expr.add i_ Expr.one) (Expr.var "n") ]) ]
  in
  List.iter
    (fun nest ->
      let p = Statement.unroll ~factor:2 nest in
      List.iter
        (fun n ->
          check_bool
            (Printf.sprintf "equivalent at n=%d" n)
            true
            (program_equivalent ~params:[ ("n", n) ] [ nest ] p))
        [ 1; 2; 5; 8 ])
    [ strided; reversed ]

let test_unroll_outer_loops_kept () =
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n"); Nest.loop "j" Expr.one (Expr.var "n") ]
      [ st "a" [ i_; Expr.var "j" ] (Expr.add i_ (Expr.var "j")) ]
  in
  let p = Statement.unroll ~factor:4 nest in
  check_bool "outer loop unchanged" true
    (List.for_all (fun n -> List.length n.Nest.loops = 2) p);
  check_bool "equivalent" true (program_equivalent ~params:[ ("n", 10) ] [ nest ] p)

let test_unroll_validation () =
  let nest = mk1 [ st "a" [ i_ ] i_ ] in
  check_bool "factor 0 rejected" true
    (match Statement.unroll ~factor:0 nest with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_int "factor 1 is identity" 1 (List.length (Statement.unroll ~factor:1 nest));
  let runtime_step =
    Nest.make
      [ Nest.loop ~step:(Expr.var "s") "i" Expr.one (Expr.var "n") ]
      [ st "a" [ i_ ] i_ ]
  in
  check_bool "runtime step rejected" true
    (match Statement.unroll ~factor:2 runtime_step with
    | exception Invalid_argument _ -> true
    | _ -> false)

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
      ( "unroll",
        [
          Alcotest.test_case "basic with remainder" `Quick test_unroll_basic;
          Alcotest.test_case "strided and reversed" `Quick
            test_unroll_strided_and_negative;
          Alcotest.test_case "outer loops kept" `Quick test_unroll_outer_loops_kept;
          Alcotest.test_case "validation" `Quick test_unroll_validation;
        ] );
    ]
