(* Tests for the C emitter (lib/emit), including gcc-compiled end-to-end
   comparisons against the interpreter when a C compiler is available. *)

open Itf_ir
module C = Itf_emit.C
module T = Itf_core.Template
module F = Itf_core.Framework

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Expression emission                                                 *)
(* ------------------------------------------------------------------ *)

let test_expr_emission () =
  check_str "arith" "((i + 1L) * 2L)"
    (C.expr_to_c Expr.(Mul (Add (Var "i", Int 1), Int 2)));
  check_str "floor div" "ifloordiv(i, 2L)" (C.expr_to_c Expr.(Div (Var "i", Int 2)));
  check_str "floor mod" "ifloormod(n, 3L)" (C.expr_to_c Expr.(Mod (Var "n", Int 3)));
  check_str "min" "imin(a, b)" (C.expr_to_c Expr.(Min (Var "a", Var "b")));
  check_str "negative literal" "(-4L)" (C.expr_to_c (Expr.int (-4)));
  check_str "load as macro" "A(i, (j - 1L))"
    (C.expr_to_c (Expr.Load { array = "A"; index = [ Expr.Var "i"; Expr.Sub (Expr.Var "j", Expr.Int 1) ] }));
  check_str "abs builtin" "iabs(s)" (C.expr_to_c (Expr.Call ("abs", [ Expr.Var "s" ])));
  check_bool "uninterpreted call rejected" true
    (match C.expr_to_c (Expr.Call ("colstr", [ Expr.Var "j" ])) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_kernel_shape () =
  let nest = Builders.stencil () in
  let src = C.kernel ~name:"stencil" nest in
  check_bool "declares function" true
    (Builders.contains ~sub:"static void stencil(void)" src);
  check_bool "hoists bounds" true (Builders.contains ~sub:"const long hi_i" src);
  check_bool "direction-agnostic condition" true
    (Builders.contains ~sub:"st_i > 0 ? i <= hi_i : i >= hi_i" src)

let test_program_validation () =
  let nest = Builders.matmul () in
  check_bool "missing bounds rejected" true
    (match C.program ~params:[ ("n", 4) ] ~bounds:[] nest with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_openmp_pragma () =
  let nest =
    Nest.make
      [ Nest.loop ~kind:Nest.Pardo "i" Expr.one (Expr.var "n") ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "i") ]
  in
  let with_omp =
    C.program ~openmp:true ~params:[ ("n", 4) ] ~bounds:[ ("a", [ (1, 4) ]) ] nest
  in
  let without =
    C.program ~params:[ ("n", 4) ] ~bounds:[ ("a", [ (1, 4) ]) ] nest
  in
  check_bool "pragma present" true
    (Builders.contains ~sub:"#pragma omp parallel for" with_omp);
  check_bool "pragma absent" false
    (Builders.contains ~sub:"#pragma omp parallel for" without)

(* ------------------------------------------------------------------ *)
(* gcc end-to-end                                                      *)
(* ------------------------------------------------------------------ *)

let have_gcc = Sys.command "gcc --version >/dev/null 2>&1" = 0

(* Interpreter-side checksums with the emitter's fill convention. *)
let interp_checksums ~params ~bounds nest =
  let env = Itf_exec.Env.create () in
  List.iter (fun (v, x) -> Itf_exec.Env.set_scalar env v x) params;
  List.iter
    (fun (a, dims) ->
      Itf_exec.Env.declare_array env a dims;
      Itf_exec.Env.fill_synthetic (Itf_exec.Env.array_data env a))
    bounds;
  Itf_exec.Interp.run env nest;
  List.map
    (fun (a, _) ->
      (a, Array.fold_left ( + ) 0 (Itf_exec.Env.array_data env a)))
    bounds
  |> List.sort compare

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* Compile an emitted program and return its "name checksum" output. *)
let compile_and_run src =
  let c_file = Filename.temp_file "itf_emit" ".c" in
  let exe = Filename.temp_file "itf_emit" ".exe" in
  let out_file = Filename.temp_file "itf_emit" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ c_file; exe; out_file ])
    (fun () ->
      write_file c_file src;
      if
        Sys.command
          (Printf.sprintf "gcc -O1 -o %s %s 2>/dev/null" (Filename.quote exe)
             (Filename.quote c_file))
        <> 0
      then Alcotest.fail "gcc compilation failed";
      if
        Sys.command
          (Printf.sprintf "%s > %s" (Filename.quote exe) (Filename.quote out_file))
        <> 0
      then Alcotest.fail "emitted program crashed";
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ name; sum ] -> Some (name, int_of_string sum)
          | _ -> None)
        (read_lines out_file)
      |> List.sort compare)

let gcc_case name nest ~params ~bounds =
  Alcotest.test_case name `Quick (fun () ->
      if not have_gcc then ()
      else begin
        let src = C.program ~params ~bounds nest in
        let compiled = compile_and_run src in
        let interp = interp_checksums ~params ~bounds nest in
        Alcotest.(check (list (pair string int))) "checksums" interp compiled
      end)

let fig7_nest () =
  let seq =
    [
      T.reverse_permute ~rev:[| false; false; false |] ~perm:[| 2; 0; 1 |];
      T.block ~n:3 ~i:0 ~j:2
        ~bsize:[| Expr.var "bj"; Expr.var "bk"; Expr.var "bi" |];
      T.parallelize [| true; false; true; false; false; false |];
      T.reverse_permute ~rev:(Array.make 6 false) ~perm:[| 0; 2; 1; 3; 4; 5 |];
      T.coalesce ~n:6 ~i:0 ~j:1;
    ]
  in
  (F.apply_exn (Builders.matmul ()) seq).F.nest

let reversed_strided () =
  Nest.make
    [ Nest.loop ~step:(Expr.int (-3)) "i" (Expr.var "n") Expr.one ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "i" ] },
          Expr.(add (mod_ (var "i") (int 5)) (div (var "i") (int 2))) );
    ]

let mm_bounds n = [ ("A", [ (1, n); (1, n) ]); ("B", [ (1, n); (1, n) ]); ("C", [ (1, n); (1, n) ]) ]

let lu_blocked () =
  (* Subtractive variant of the LU update (identical subscripts, hence
     identical dependence structure) so values grow linearly: the true
     multiply-accumulate overflows differently in 63-bit OCaml ints and
     64-bit C longs. *)
  let nest =
    Itf_lang.Parser.parse_nest
      "do k = 1, n\n\
      \  do i = k + 1, n\n\
      \    do j = k + 1, n\n\
      \      a(i, j) = a(i, j) - a(i, k) - a(k, j)\n\
      \    enddo\n\
      \  enddo\n\
       enddo\n"
  in
  (F.apply_exn nest
     [
       T.parallelize [| false; true; true |];
       T.block ~n:3 ~i:1 ~j:2 ~bsize:[| Expr.int 4; Expr.int 4 |];
     ])
    .F.nest

let () =
  Alcotest.run "emit"
    [
      ( "text",
        [
          Alcotest.test_case "expressions" `Quick test_expr_emission;
          Alcotest.test_case "kernel shape" `Quick test_kernel_shape;
          Alcotest.test_case "program validation" `Quick test_program_validation;
          Alcotest.test_case "openmp pragma" `Quick test_openmp_pragma;
        ] );
      ( "gcc",
        [
          gcc_case "matmul original" (Builders.matmul ()) ~params:[ ("n", 10) ]
            ~bounds:(mm_bounds 10);
          gcc_case "matmul figure-7 pipeline" (fig7_nest ())
            ~params:[ ("n", 10); ("bi", 2); ("bj", 3); ("bk", 4) ]
            ~bounds:(mm_bounds 10);
          gcc_case "stencil skew+interchange"
            (F.apply_exn (Builders.stencil ())
               [
                 T.unimodular
                   (Itf_mat.Intmat.mul
                      (Itf_mat.Intmat.interchange 2 0 1)
                      (Itf_mat.Intmat.skew 2 0 1 1));
               ])
              .F.nest
            ~params:[ ("n", 12) ]
            ~bounds:[ ("a", [ (1, 12); (1, 12) ]) ];
          gcc_case "negative strided loop with div/mod" (reversed_strided ())
            ~params:[ ("n", 20) ]
            ~bounds:[ ("a", [ (1, 20) ]) ];
          gcc_case "LU update: parallelize i,j + block (EXP-LU)" (lu_blocked ())
            ~params:[ ("n", 11) ]
            ~bounds:[ ("a", [ (1, 11); (1, 11) ]) ];
        ] );
    ]
