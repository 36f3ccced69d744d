(* Tests for the executor substrate (lib/exec). *)

open Itf_ir
module Env = Itf_exec.Env
module Interp = Itf_exec.Interp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The row-major offset of an element, as the tracer reports a read. *)
let flat_index env a idx =
  let flat = ref (-1) in
  Env.set_tracer env (Some (fun (ac : Env.access) -> flat := ac.Env.flat));
  ignore (Env.read env a idx);
  Env.set_tracer env None;
  !flat

let test_env_arrays () =
  let env = Env.create () in
  Env.declare_array env "a" [ (1, 3); (1, 4) ];
  check_int "size" 12 (Env.array_size env "a");
  Env.write env "a" [ 2; 3 ] 42;
  check_int "read back" 42 (Env.read env "a" [ 2; 3 ]);
  check_int "row-major flat" ((2 - 1) * 4) (flat_index env "a" [ 2; 1 ]);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Env: a subscript 0 = 4 out of [1, 3]") (fun () ->
      ignore (Env.read env "a" [ 4; 1 ]));
  Alcotest.check_raises "arity"
    (Invalid_argument "Env: a expects 2 subscripts, got 1") (fun () ->
      ignore (Env.read env "a" [ 2 ]))

let test_env_negative_base () =
  let env = Env.create () in
  Env.declare_array env "a" [ (-3, 3) ];
  Env.write env "a" [ -3 ] 7;
  check_int "negative base" 7 (Env.read env "a" [ -3 ]);
  check_int "flat 0" 0 (flat_index env "a" [ -3 ])

let test_builtins_and_functions () =
  let env = Env.create () in
  check_int "abs" 5 (Env.call env "abs" [ -5 ]);
  check_int "sgn" (-1) (Env.call env "sgn" [ -5 ]);
  Env.declare_function env "twice" (function [ x ] -> 2 * x | _ -> 0);
  check_int "registered fn" 14 (Env.call env "twice" [ 7 ])

let test_tracer () =
  let env = Env.create () in
  Env.declare_array env "a" [ (0, 9) ];
  let events = ref [] in
  Env.set_tracer env (Some (fun ev -> events := ev :: !events));
  Env.write env "a" [ 3 ] 1;
  ignore (Env.read env "a" [ 3 ]);
  Env.set_tracer env None;
  ignore (Env.read env "a" [ 3 ]);
  check_int "two traced events" 2 (List.length !events);
  check_bool "kinds" true
    (match !events with
    | [ { Env.kind = Env.Read; _ }; { Env.kind = Env.Write; _ } ] -> true
    | _ -> false)

let simple_nest ?(kind = Nest.Do) ?(step = Expr.one) lo hi =
  Nest.make
    [ Nest.loop ~kind ~step "i" lo hi ]
    [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "i") ]

let test_run_simple () =
  let env = Env.create () in
  Env.declare_array env "a" [ (0, 9) ];
  Interp.run env (simple_nest (Expr.int 0) (Expr.int 9));
  check_int "a(7) = 7" 7 (Env.read env "a" [ 7 ])

let test_run_step_and_empty () =
  let env = Env.create () in
  Env.declare_array env "a" [ (0, 9) ];
  Interp.run env (simple_nest ~step:(Expr.int 3) (Expr.int 0) (Expr.int 9));
  check_int "a(9)" 9 (Env.read env "a" [ 9 ]);
  check_int "a(4) untouched" 0 (Env.read env "a" [ 4 ]);
  (* empty loop: hi < lo with positive step *)
  let env2 = Env.create () in
  Env.declare_array env2 "a" [ (0, 9) ];
  Interp.run env2 (simple_nest (Expr.int 5) (Expr.int 2));
  check_bool "no writes" true (Array.for_all (( = ) 0) (Env.array_data env2 "a"))

let test_run_negative_step () =
  let env = Env.create () in
  Env.declare_array env "a" [ (0, 9) ];
  let order = ref [] in
  Interp.run
    ~on_iteration:(fun it -> order := it.(0) :: !order)
    env
    (simple_nest ~step:(Expr.int (-2)) (Expr.int 9) (Expr.int 1));
  Alcotest.(check (list int)) "descending order" [ 9; 7; 5; 3; 1 ] (List.rev !order)

let test_inits_run_each_iteration () =
  (* inits define x from the loop var; body uses x. *)
  let nest =
    Nest.make
      ~inits:[ Stmt.Set ("x", Expr.(mul (int 2) (var "i"))) ]
      [ Nest.loop "i" (Expr.int 0) (Expr.int 4) ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "x") ]
  in
  let env = Env.create () in
  Env.declare_array env "a" [ (0, 4) ];
  Interp.run env nest;
  check_int "a(3) = 6" 6 (Env.read env "a" [ 3 ])

let test_pardo_orders () =
  let nest = simple_nest ~kind:Nest.Pardo (Expr.int 0) (Expr.int 9) in
  let order pardo_order =
    let env = Env.create () in
    Env.declare_array env "a" [ (0, 9) ];
    List.map (fun it -> it.(0)) (Interp.iteration_order ~pardo_order env nest)
  in
  Alcotest.(check (list int)) "forward" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (order `Forward);
  Alcotest.(check (list int)) "reverse" [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ] (order `Reverse);
  let s1 = order (`Shuffle 7) and s2 = order (`Shuffle 7) and s3 = order (`Shuffle 8) in
  check_bool "shuffle deterministic" true (s1 = s2);
  check_bool "shuffle differs across seeds" true (s1 <> s3);
  Alcotest.(check (list int))
    "shuffle is a permutation" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.sort compare s1)

let test_triangular_iteration_order () =
  let env = Builders.make_env ~params:[ ("n", 3) ] (Builders.triangular ()) in
  let order = Interp.iteration_order env (Builders.triangular ()) in
  Alcotest.(check (list (list int)))
    "triangular order"
    [ [ 1; 1 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 2 ]; [ 2; 3 ]; [ 3; 3 ] ]
    (List.map Array.to_list order)

let test_division_semantics_match_expr () =
  (* Interp and Expr constant folding must agree on floor div/mod. *)
  List.iter
    (fun (a, b) ->
      let env = Env.create () in
      Env.set_scalar env "a" a;
      Env.set_scalar env "b" b;
      let de = Expr.(div (int a) (int b)) and me = Expr.(mod_ (int a) (int b)) in
      check_int
        (Printf.sprintf "div %d %d" a b)
        (match de with Expr.Int v -> v | _ -> assert false)
        (Builders.eval env Expr.(Div (Var "a", Var "b")));
      check_int
        (Printf.sprintf "mod %d %d" a b)
        (match me with Expr.Int v -> v | _ -> assert false)
        (Builders.eval env Expr.(Mod (Var "a", Var "b"))))
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (0, 3) ]

let test_trace_ascii () =
  let nest =
    Nest.make
      [ Nest.loop "i" (Expr.int 0) (Expr.int 1); Nest.loop "j" (Expr.int 0) (Expr.int 2) ]
      [ Stmt.Set ("x", Expr.var "j") ]
  in
  let env = Env.create () in
  Alcotest.(check string)
    "row-major grid" "  0   1   2\n  3   4   5\n"
    (Itf_exec.Trace.ascii_order env nest);
  (* reversed outer loop flips the rows' ordinals *)
  let rev =
    Nest.make
      [
        Nest.loop ~step:(Expr.int (-1)) "i" (Expr.int 1) (Expr.int 0);
        Nest.loop "j" (Expr.int 0) (Expr.int 2);
      ]
      [ Stmt.Set ("x", Expr.var "j") ]
  in
  Alcotest.(check string)
    "reversed grid" "  3   4   5\n  0   1   2\n"
    (Itf_exec.Trace.ascii_order env rev);
  check_bool "depth 3 rejected" true
    (match
       Itf_exec.Trace.ascii_order env
         (Nest.make
            [
              Nest.loop "i" Expr.zero Expr.one;
              Nest.loop "j" Expr.zero Expr.one;
              Nest.loop "k" Expr.zero Expr.one;
            ]
            [ Stmt.Set ("x", Expr.zero) ])
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_trace_ascii_dims () =
  let env = Env.create () in
  (* 1-D: one column, one row per iteration, ordinals in execution order *)
  let oned =
    Nest.make
      [ Nest.loop "i" (Expr.int 1) (Expr.int 4) ]
      [ Stmt.Set ("x", Expr.var "i") ]
  in
  Alcotest.(check string)
    "1-D grid" "  0\n  1\n  2\n  3\n"
    (Itf_exec.Trace.ascii_order env oned);
  (* 2-D 2x2: row-major ordinals *)
  let two =
    Nest.make
      [
        Nest.loop "i" (Expr.int 0) (Expr.int 1);
        Nest.loop "j" (Expr.int 0) (Expr.int 1);
      ]
      [ Stmt.Set ("x", Expr.var "j") ]
  in
  Alcotest.(check string)
    "2x2 grid" "  0   1\n  2   3\n"
    (Itf_exec.Trace.ascii_order env two);
  (* the rejection names the offending depth *)
  Alcotest.check_raises "depth named"
    (Invalid_argument
       "Trace.ascii_order: only 1- or 2-deep nests (nest is 3 deep)")
    (fun () ->
      ignore
        (Itf_exec.Trace.ascii_order env
           (Nest.make
              [
                Nest.loop "i" Expr.zero Expr.one;
                Nest.loop "j" Expr.zero Expr.one;
                Nest.loop "k" Expr.zero Expr.one;
              ]
              [ Stmt.Set ("x", Expr.zero) ])))

let test_sparse_matmul_runs () =
  (* The Figure 4(c) nest executes with CSR access functions. *)
  let nest = Builders.sparse_matmul () in
  let colstr = [| 1; 3; 4; 6 |] in
  (* 1-based columns 1..3, nnz entries 1..5 *)
  let funcs =
    [
      ("colstr", (function [ j ] -> colstr.(j - 1) | _ -> assert false));
      ("rowidx", (function [ k ] -> ((k * 7) mod 3) + 1 | _ -> assert false));
    ]
  in
  let snap = Builders.run_snapshot ~funcs ~params:[ ("n", 3) ] nest in
  check_bool "produced output" true (List.mem_assoc "a" snap)

let () =
  Alcotest.run "exec"
    [
      ( "env",
        [
          Alcotest.test_case "arrays" `Quick test_env_arrays;
          Alcotest.test_case "negative base" `Quick test_env_negative_base;
          Alcotest.test_case "builtins and functions" `Quick test_builtins_and_functions;
          Alcotest.test_case "tracer" `Quick test_tracer;
        ] );
      ( "interp",
        [
          Alcotest.test_case "simple loop" `Quick test_run_simple;
          Alcotest.test_case "steps and empty loops" `Quick test_run_step_and_empty;
          Alcotest.test_case "negative step order" `Quick test_run_negative_step;
          Alcotest.test_case "inits each iteration" `Quick test_inits_run_each_iteration;
          Alcotest.test_case "pardo orders" `Quick test_pardo_orders;
          Alcotest.test_case "triangular order" `Quick test_triangular_iteration_order;
          Alcotest.test_case "floor division" `Quick test_division_semantics_match_expr;
          Alcotest.test_case "sparse matmul (fig 4c)" `Quick test_sparse_matmul_runs;
          Alcotest.test_case "ascii traversal grids" `Quick test_trace_ascii;
          Alcotest.test_case "ascii grid dimensions" `Quick
            test_trace_ascii_dims;
        ] );
    ]
