(* Tests for the loop-language front end and the transformation-script
   parser (lib/lang). *)

open Itf_ir
module Lexer = Itf_lang.Lexer
module Parser = Itf_lang.Parser
module Script = Itf_lang.Script
module Template = Itf_core.Template

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks s = List.map fst (Lexer.tokens s)

let test_lexer_basics () =
  check_bool "header tokens" true
    (toks "do i = 1, n"
    = Lexer.[ DO; IDENT "i"; EQUALS; INT 1; COMMA; IDENT "n"; NEWLINE; EOF ]);
  check_bool "comments stripped" true
    (toks "x = 1 # a comment\n" = Lexer.[ IDENT "x"; EQUALS; INT 1; NEWLINE; EOF ]);
  check_bool "keywords vs idents" true
    (toks "pardo enddo mod dot"
    = Lexer.[ PARDO; ENDDO; MOD; IDENT "dot"; NEWLINE; EOF ]);
  check_bool "blank lines collapse" true
    (toks "a\n\n\nb" = Lexer.[ IDENT "a"; NEWLINE; IDENT "b"; NEWLINE; EOF ])

let test_lexer_error () =
  check_bool "bad char" true
    (match Lexer.tokens "a @ b" with
    | exception Lexer.Error { line = 1; _ } -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let stencil_src =
  "do i = 2, n - 1\n\
  \  do j = 2, n - 1\n\
  \    a(i, j) = (a(i, j) + a(i - 1, j) + a(i, j - 1) + a(i + 1, j) + a(i, j \
   + 1)) / 5\n\
  \  enddo\n\
   enddo\n"

let test_parse_stencil () =
  let nest = Parser.parse_nest stencil_src in
  check_int "depth" 2 (Nest.depth nest);
  Alcotest.(check (list string)) "vars" [ "i"; "j" ] (Nest.loop_vars nest);
  Alcotest.(check (list string)) "params" [ "n" ] (Nest.symbolic_params nest);
  (* the analyzer agrees with the hand-built figure 1 nest *)
  Alcotest.(check (list string))
    "dependence vectors" [ "(0, 1)"; "(1, 0)" ]
    (List.sort compare
       (List.map Builders.dv_string (Itf_dep.Analysis.vectors nest)))

let test_parse_roundtrip () =
  (* print -> parse -> print is stable *)
  let nest = Parser.parse_nest stencil_src in
  let printed = Nest.to_string nest in
  let nest2 = Parser.parse_nest printed in
  check_str "roundtrip" printed (Nest.to_string nest2)

let test_parse_pardo_step () =
  let nest = Parser.parse_nest "pardo i = n, 1, -2\n  b(i) = i mod 3\nenddo\n" in
  (match nest.Nest.loops with
  | [ l ] ->
    check_bool "pardo" true (l.Nest.kind = Nest.Pardo);
    check_str "step" "-2" (Expr.to_string l.Nest.step)
  | _ -> Alcotest.fail "one loop expected");
  match nest.Nest.body with
  | [ Stmt.Store (_, Expr.Mod (_, _)) ] -> ()
  | _ -> Alcotest.fail "expected i mod 3 body"

let test_parse_functions () =
  let src =
    "function colstr\n\
     function rowidx\n\
     do i = 1, n\n\
    \  do j = 1, n\n\
    \    do k = colstr(j), colstr(j + 1) - 1\n\
    \      a(i, j) = a(i, j) + b(i, rowidx(k)) * c(k)\n\
    \    enddo\n\
    \  enddo\n\
     enddo\n"
  in
  let prog = Parser.parse src in
  Alcotest.(check (list string))
    "declared functions" [ "rowidx"; "colstr" ] prog.Parser.functions;
  (* colstr is a Call in the k-loop bound, not an array load *)
  let k_loop = List.nth prog.Parser.nest.Nest.loops 2 in
  check_bool "call in bound" true
    (match k_loop.Nest.lo with Expr.Call ("colstr", _) -> true | _ -> false);
  check_bool "rowidx resolved inside subscript" true
    (Builders.contains ~sub:"rowidx(k)" (Nest.to_string prog.Parser.nest));
  (* b stays an array *)
  check_bool "b is an array" true
    (List.mem "b" (Nest.arrays_read prog.Parser.nest))

let test_parse_min_max () =
  let nest =
    Parser.parse_nest "do i = max(n, 3), min(2 * n, 100)\n  x = i\nenddo\n"
  in
  match nest.Nest.loops with
  | [ l ] ->
    check_bool "max lower" true
      (match l.Nest.lo with Expr.Max _ -> true | _ -> false);
    check_bool "min upper" true
      (match l.Nest.hi with Expr.Min _ -> true | _ -> false)
  | _ -> Alcotest.fail "one loop expected"

let test_parse_errors () =
  let fails src =
    match Parser.parse src with
    | exception Parser.Error _ -> true
    | _ -> false
  in
  check_bool "missing enddo" true (fails "do i = 1, n\n  x = 1\n");
  check_bool "imperfect nest rejected as trailing input" true
    (fails "do i = 1, n\n  x = 1\n  do j = 1, n\n    y = 2\n  enddo\nenddo\n");
  check_bool "garbage" true (fails "do i = , n\nenddo\n");
  check_bool "assign to function" true
    (fails "function f\ndo i = 1, n\n  f(i) = 1\nenddo\n");
  check_bool "duplicate loop vars" true
    (fails "do i = 1, n\n  do i = 1, n\n    x = 1\n  enddo\nenddo\n")

let test_parse_guard () =
  let src =
    "do i = 2, n - 1\n\
    \  do j = 2, n - 1\n\
    \    a(i, j) = b(j)\n\
    \    if b(j) > 0\n\
    \      b(j) = a(i - 1, j + 1)\n\
    \    endif\n\
    \  enddo\n\
     enddo\n"
  in
  let nest = Parser.parse_nest src in
  check_int "two statements" 2 (List.length nest.Nest.body);
  (match nest.Nest.body with
  | [ _; Stmt.Guard { rel = Stmt.Gt; body = [ Stmt.Store _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected a guarded store");
  (* print -> parse roundtrip *)
  let printed = Nest.to_string nest in
  check_str "roundtrip" printed (Nest.to_string (Parser.parse_nest printed));
  (* all relations parse *)
  List.iter
    (fun (tok, rel) ->
      let src =
        Printf.sprintf "do i = 1, n\n  if i %s 3\n    a(i) = i\n  endif\nenddo\n" tok
      in
      match (Parser.parse_nest src).Nest.body with
      | [ Stmt.Guard g ] ->
        check_bool ("relation " ^ tok) true (g.Stmt.rel = rel)
      | _ -> Alcotest.fail "expected a guard")
    [
      ("<", Stmt.Lt); ("<=", Stmt.Le); (">", Stmt.Gt); (">=", Stmt.Ge);
      ("==", Stmt.Eq); ("!=", Stmt.Ne);
    ]

let test_guard_executes () =
  let nest =
    Parser.parse_nest
      "do i = 1, 8\n  if i mod 2 == 0\n    a(i) = i\n  endif\nenddo\n"
  in
  let env = Itf_exec.Env.create () in
  Itf_exec.Env.declare_array env "a" [ (1, 8) ];
  Itf_exec.Interp.run env nest;
  check_int "a(4) set" 4 (Itf_exec.Env.read env "a" [ 4 ]);
  check_int "a(5) untouched" 0 (Itf_exec.Env.read env "a" [ 5 ])

let test_parsed_nest_executes () =
  (* End-to-end: parse then interpret. *)
  let nest = Parser.parse_nest "do i = 1, 5\n  a(i) = i * i\nenddo\n" in
  let env = Itf_exec.Env.create () in
  Itf_exec.Env.declare_array env "a" [ (1, 5) ];
  Itf_exec.Interp.run env nest;
  check_int "a(4) = 16" 16 (Itf_exec.Env.read env "a" [ 4 ])

(* ------------------------------------------------------------------ *)
(* Scripts                                                             *)
(* ------------------------------------------------------------------ *)

let test_script_basic () =
  let seq =
    Script.parse ~depth:3
      "# comment line\n\
       interchange 0 1\n\
       reversal 2\n\
       skew 0 1 1\n\
       parallelize 0 2\n"
  in
  check_int "four templates" 4 (List.length seq);
  check_bool "chains" true (Itf_core.Sequence.well_formed seq)

let test_script_depth_tracking () =
  (* block grows the depth; following commands use the new depth *)
  let seq = Script.parse ~depth:2 "block 0 1 4 4\nparallelize 0\ncoalesce 2 3\n" in
  check_int "three templates" 3 (List.length seq);
  check_int "output depth" 3 (Itf_core.Template.output_depth (List.hd (List.rev seq)))

let test_script_figure7 () =
  let seq =
    Script.parse ~depth:3
      "permute 2 0 1\nblock 0 2 bj bk bi\nparallelize 0 2\ninterchange 1 \
       2\ncoalesce 0 1\n"
  in
  check_int "five templates" 5 (List.length seq);
  (* symbolic sizes parse as variables *)
  (match List.nth seq 1 with
  | Template.Block { bsize; _ } ->
    check_bool "bj symbolic" true (bsize.(0) = Expr.var "bj")
  | _ -> Alcotest.fail "expected block");
  check_int "final depth 5" 5 (Itf_core.Template.output_depth (List.hd (List.rev seq)))

let test_script_errors () =
  let fails ~depth src =
    match Script.parse ~depth src with
    | exception Script.Error _ -> true
    | _ -> false
  in
  check_bool "unknown command" true (fails ~depth:2 "frobnicate 1\n");
  check_bool "bad arity" true (fails ~depth:2 "block 0 1 4\n");
  check_bool "bad integer" true (fails ~depth:2 "reversal x\n");
  check_bool "out of range" true (fails ~depth:2 "reversal 5\n");
  check_bool "unimodular entry count" true (fails ~depth:2 "unimodular 1 0 1\n");
  check_bool "error reports the line" true
    (match Script.parse ~depth:2 "interchange 0 1\nfrobnicate\n" with
    | exception Script.Error { line = 2; _ } -> true
    | _ -> false)

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "errors" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "stencil" `Quick test_parse_stencil;
          Alcotest.test_case "print/parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "pardo and steps" `Quick test_parse_pardo_step;
          Alcotest.test_case "function directives (fig 4c)" `Quick
            test_parse_functions;
          Alcotest.test_case "min/max bounds" `Quick test_parse_min_max;
          Alcotest.test_case "guards (if/endif)" `Quick test_parse_guard;
          Alcotest.test_case "guards execute" `Quick test_guard_executes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "parsed nest executes" `Quick test_parsed_nest_executes;
        ] );
      ( "script",
        [
          Alcotest.test_case "basic commands" `Quick test_script_basic;
          Alcotest.test_case "depth tracking" `Quick test_script_depth_tracking;
          Alcotest.test_case "figure 7 script" `Quick test_script_figure7;
          Alcotest.test_case "errors" `Quick test_script_errors;
        ] );
    ]
