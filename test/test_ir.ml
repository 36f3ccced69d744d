(* Tests for the loop-nest IR (lib/ir). *)

open Itf_ir

let e = Alcotest.testable Expr.pp Expr.equal

let check_expr = Alcotest.check e
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Smart constructors / simplification                                 *)
(* ------------------------------------------------------------------ *)

let test_fold_constants () =
  check_expr "2+3" (Expr.int 5) Expr.(add (int 2) (int 3));
  check_expr "2*3" (Expr.int 6) Expr.(mul (int 2) (int 3));
  check_expr "7/2 floor" (Expr.int 3) Expr.(div (int 7) (int 2));
  check_expr "-7/2 floor" (Expr.int (-4)) Expr.(div (int (-7)) (int 2));
  check_expr "-7 mod 2" (Expr.int 1) Expr.(mod_ (int (-7)) (int 2));
  check_expr "min" (Expr.int 2) Expr.(min_ (int 2) (int 3));
  check_expr "max" (Expr.int 3) Expr.(max_ (int 2) (int 3))

let test_identities () =
  let i = Expr.var "i" in
  check_expr "i+0" i Expr.(add i zero);
  check_expr "0+i" i Expr.(add zero i);
  check_expr "i-0" i Expr.(sub i zero);
  check_expr "i*1" i Expr.(mul i one);
  check_expr "1*i" i Expr.(mul one i);
  check_expr "i*0" Expr.zero Expr.(mul i zero);
  check_expr "i/1" i Expr.(div i one);
  check_expr "i mod 1" Expr.zero Expr.(mod_ i one);
  check_expr "i-i" Expr.zero Expr.(sub i i);
  check_expr "neg neg" i Expr.(neg (neg i));
  check_expr "(i+2)+3 regroups" Expr.(add i (int 5)) Expr.(add (add i (int 2)) (int 3))

let test_div_mod_law () =
  (* a = b * (a/b) + a mod b for many signs *)
  List.iter
    (fun (a, b) ->
      let q =
        match Expr.(div (int a) (int b)) with Expr.Int q -> q | _ -> assert false
      in
      let r =
        match Expr.(mod_ (int a) (int b)) with Expr.Int r -> r | _ -> assert false
      in
      Alcotest.(check int)
        (Printf.sprintf "%d = %d*%d + %d" a b q r)
        a
        ((b * q) + r);
      check_bool "mod sign matches divisor" true (r = 0 || (r < 0) = (b < 0)))
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (6, 3); (-6, 3); (0, 5) ]

let test_ceil_floor_div () =
  check_expr "ceil_div const" (Expr.int 4) (Expr.ceil_div (Expr.int 7) 2);
  check_expr "floor_div const" (Expr.int 3) (Expr.floor_div (Expr.int 7) 2);
  check_expr "ceil_div by 1" (Expr.var "x") (Expr.ceil_div (Expr.var "x") 1);
  (* symbolic: ceil(x/3) = (x+2)/3 *)
  check_expr "ceil_div symbolic"
    Expr.(div (add (var "x") (int 2)) (int 3))
    (Expr.ceil_div (Expr.var "x") 3)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let test_free_vars () =
  let e =
    Expr.(add (mul (var "i") (var "n")) (Load { array = "a"; index = [ Expr.var "j" ] }))
  in
  Alcotest.(check (list string)) "free vars" [ "i"; "j"; "n" ] (Expr.free_vars e);
  Alcotest.(check (list string)) "arrays" [ "a" ] (Expr.arrays e);
  check_bool "mentions i" true (Expr.mentions "i" e);
  check_bool "mentions k" false (Expr.mentions "k" e)

let test_subst () =
  let e = Expr.(add (var "i") (mul (int 2) (var "j"))) in
  check_expr "subst i->5, j->1"
    (Expr.int 7)
    (Expr.subst [ ("i", Expr.int 5); ("j", Expr.int 1) ] e);
  (* substitution applies inside subscripts *)
  let l = Expr.Load { array = "a"; index = [ Expr.var "i" ] } in
  check_expr "subst in load"
    (Expr.Load { array = "a"; index = [ Expr.int 3 ] })
    (Expr.subst [ ("i", Expr.int 3) ] l);
  (* abs/sgn builtins fold on constants *)
  check_expr "abs folds" (Expr.int 4)
    (Expr.subst [ ("s", Expr.int (-4)) ] (Expr.Call ("abs", [ Expr.var "s" ])));
  check_expr "sgn folds" (Expr.int (-1))
    (Expr.subst [ ("s", Expr.int (-4)) ] (Expr.Call ("sgn", [ Expr.var "s" ])))

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let test_pp_precedence () =
  check_str "mul over add" "1 + 2 * x"
    Expr.(to_string (Add (Int 1, Mul (Int 2, Var "x"))));
  check_str "parens when needed" "(1 + x) * 2"
    Expr.(to_string (Mul (Add (Int 1, Var "x"), Int 2)));
  check_str "sub right assoc parens" "a - (b - c)"
    Expr.(to_string (Sub (Var "a", Sub (Var "b", Var "c"))));
  check_str "min flattening" "min(a, b, c)"
    Expr.(to_string (Min (Min (Var "a", Var "b"), Var "c")));
  check_str "access" "a(i, j - 1)"
    Expr.(to_string (Load { array = "a"; index = [ Var "i"; Sub (Var "j", Int 1) ] }))

let test_nest_pp () =
  let nest =
    Nest.make
      [
        Nest.loop "i" (Expr.int 2) Expr.(sub (var "n") (int 1));
        Nest.loop "j" (Expr.int 2) Expr.(sub (var "n") (int 1));
      ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
            Expr.Load { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] } );
      ]
  in
  check_str "paper style rendering"
    "do i = 2, n - 1\n  do j = 2, n - 1\n    a(i, j) = a(i, j)\n  enddo\nenddo\n"
    (Nest.to_string nest)

let test_nest_pardo_step_pp () =
  let nest =
    Nest.make
      [ Nest.loop ~kind:Nest.Pardo ~step:(Expr.int 2) "i" (Expr.int 1) (Expr.var "n") ]
      [ Stmt.Set ("x", Expr.var "i") ]
  in
  check_str "pardo with step" "pardo i = 1, n, 2\n  x = i\nenddo\n"
    (Nest.to_string nest)

(* ------------------------------------------------------------------ *)
(* Nest helpers                                                        *)
(* ------------------------------------------------------------------ *)

let stencil () =
  Nest.make
    [
      Nest.loop "i" (Expr.int 2) Expr.(sub (var "n") (int 1));
      Nest.loop "j" (Expr.int 2) Expr.(sub (var "n") (int 1));
    ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
          Expr.(
            add
              (Load { array = "a"; index = [ sub (var "i") (int 1); var "j" ] })
              (Load { array = "a"; index = [ var "i"; sub (var "j") (int 1) ] })) );
    ]

let test_nest_queries () =
  let nest = stencil () in
  Alcotest.(check int) "depth" 2 (Nest.depth nest);
  Alcotest.(check (list string)) "loop vars" [ "i"; "j" ] (Nest.loop_vars nest);
  Alcotest.(check (list string)) "symbolic params" [ "n" ] (Nest.symbolic_params nest);
  Alcotest.(check (list string)) "arrays read" [ "a" ] (Nest.arrays_read nest);
  Alcotest.(check (list string)) "arrays written" [ "a" ] (Nest.arrays_written nest);
  check_str "fresh avoids i" "i2" (Nest.fresh_var nest "i");
  check_str "fresh keeps unused" "kk" (Nest.fresh_var nest "kk")

let test_nest_array_arities () =
  let i = Expr.var "i" in
  let ld a index = Expr.Load { array = a; index } in
  let st a index rhs = Stmt.Store ({ array = a; index }, rhs) in
  let nest =
    Nest.make
      ~inits:[ Stmt.Set ("t", ld "z" [ i ]) ]
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        (* a load inside a subscript, and one inside a call argument *)
        st "out" [ i ]
          (Expr.Add (ld "a" [ ld "b" [ i ] ], Call ("f", [ ld "h" [ i; i ] ])));
        (* a load in a guard condition; w is only ever stored *)
        Stmt.Guard
          {
            lhs = ld "g" [ i ];
            rel = Stmt.Gt;
            rhs = Expr.zero;
            body = [ st "w" [ i; i; i ] Expr.zero ];
          };
        (* the last occurrence wins: the right-hand side comes after the
           store's own array *)
        st "p" [ i; i ] (ld "p" [ i ]);
        st "q" [ i ] (ld "q" [ i; i ]);
      ]
  in
  Alcotest.(check (list (pair string int)))
    "arrays with their subscript counts, sorted"
    [
      ("a", 1); ("b", 1); ("g", 1); ("h", 2); ("out", 1);
      ("p", 1); ("q", 2); ("w", 3); ("z", 1);
    ]
    (Nest.array_arities nest)

let test_nest_validation () =
  Alcotest.check_raises "duplicate vars"
    (Invalid_argument "Nest.make: duplicate loop variables") (fun () ->
      ignore
        (Nest.make
           [ Nest.loop "i" Expr.zero Expr.one; Nest.loop "i" Expr.zero Expr.one ]
           []));
  Alcotest.check_raises "empty nest" (Invalid_argument "Nest.make: empty nest")
    (fun () -> ignore (Nest.make [] []))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_expr =
  QCheck.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then
              oneof
                [ map Expr.int (int_range (-20) 20); map Expr.var (oneofl [ "i"; "j"; "n" ]) ]
            else
              let sub = self (n / 2) in
              oneof
                [
                  map2 (fun a b -> Expr.Add (a, b)) sub sub;
                  map2 (fun a b -> Expr.Sub (a, b)) sub sub;
                  map2 (fun a b -> Expr.Mul (a, b)) sub sub;
                  map2 (fun a b -> Expr.Min (a, b)) sub sub;
                  map2 (fun a b -> Expr.Max (a, b)) sub sub;
                  map (fun a -> Expr.Neg a) sub;
                ])
          (min n 6)))

let arb_expr = QCheck.make ~print:Expr.to_string gen_expr

(* Reference evaluator used to check that simplification is semantics-
   preserving. *)
let rec eval env (e : Expr.t) =
  match e with
  | Int n -> n
  | Var v -> List.assoc v env
  | Neg a -> -eval env a
  | Add (a, b) -> eval env a + eval env b
  | Sub (a, b) -> eval env a - eval env b
  | Mul (a, b) -> eval env a * eval env b
  | Min (a, b) -> min (eval env a) (eval env b)
  | Max (a, b) -> max (eval env a) (eval env b)
  | Div _ | Mod _ | Load _ | Call _ -> assert false

let prop_simplify_preserves =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:500 arb_expr
    (fun e ->
      let env = [ ("i", 3); ("j", -2); ("n", 7) ] in
      eval env e = eval env (Expr.simplify e))

let prop_subst_closes =
  QCheck.Test.make ~name:"full substitution yields a constant" ~count:500
    arb_expr (fun e ->
      let env = [ ("i", Expr.int 3); ("j", Expr.int (-2)); ("n", Expr.int 7) ] in
      match Expr.subst env e with Expr.Int _ -> true | _ -> false)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_simplify_preserves; prop_subst_closes ]

let () =
  Alcotest.run "ir"
    [
      ( "expr",
        [
          Alcotest.test_case "constant folding" `Quick test_fold_constants;
          Alcotest.test_case "identities" `Quick test_identities;
          Alcotest.test_case "div/mod law" `Quick test_div_mod_law;
          Alcotest.test_case "ceil/floor div" `Quick test_ceil_floor_div;
          Alcotest.test_case "free vars / arrays" `Quick test_free_vars;
          Alcotest.test_case "substitution" `Quick test_subst;
          Alcotest.test_case "pretty precedence" `Quick test_pp_precedence;
        ] );
      ( "nest",
        [
          Alcotest.test_case "paper-style printing" `Quick test_nest_pp;
          Alcotest.test_case "pardo and step printing" `Quick test_nest_pardo_step_pp;
          Alcotest.test_case "queries" `Quick test_nest_queries;
          Alcotest.test_case "validation" `Quick test_nest_validation;
          Alcotest.test_case "array arities" `Quick test_nest_array_arities;
        ] );
      ("properties", qcheck_tests);
    ]
