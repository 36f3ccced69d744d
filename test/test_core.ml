(* Tests for the framework core: templates, Table 2 dependence mapping,
   sequence composition, Tables 3-4 code generation, and the uniform
   legality test — including the paper's Figures 1, 2, 4 and the Appendix A
   matrix-multiply pipeline. *)

open Itf_ir
module Dir = Itf_dep.Dir
module Depvec = Itf_dep.Depvec
module Template = Itf_core.Template
module Depmap = Itf_core.Depmap
module Sequence = Itf_core.Sequence
module Codegen = Itf_core.Codegen
module Legality = Itf_core.Legality
module Family = Itf_core.Family
module Framework = Itf_core.Framework
module Intmat = Itf_mat.Intmat

let v = Depvec.of_string
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dv = Builders.dv
let vecs_str vs = List.sort compare (List.map Builders.dv_string vs)

(* ------------------------------------------------------------------ *)
(* Template validation                                                 *)
(* ------------------------------------------------------------------ *)

let test_template_validation () =
  check_bool "non-unimodular rejected" true
    (match Template.unimodular (Builders.of_rows [ [ 2 ] ]) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "bad perm rejected" true
    (match Template.reverse_permute ~rev:[| false; false |] ~perm:[| 0; 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "bad range rejected" true
    (match Template.block ~n:3 ~i:2 ~j:1 ~bsize:[||] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "bsize arity" true
    (match Template.block ~n:3 ~i:0 ~j:1 ~bsize:[| Expr.int 4 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_template_depths () =
  check_int "block grows" 6
    (Template.output_depth (Template.block ~n:3 ~i:0 ~j:2 ~bsize:(Array.make 3 (Expr.int 4))));
  check_int "coalesce shrinks" 2
    (Template.output_depth (Template.coalesce ~n:3 ~i:1 ~j:2));
  check_int "interleave grows" 4
    (Template.output_depth
       (Template.interleave ~n:3 ~i:1 ~j:1 ~isize:[| Expr.int 2 |]));
  check_int "others preserve" 3
    (Template.output_depth (Template.parallelize [| true; false; true |]))

(* ------------------------------------------------------------------ *)
(* Table 2: dependence mapping                                         *)
(* ------------------------------------------------------------------ *)

let test_unimodular_map () =
  (* Figure 1's transformation: skew then interchange; T = I_swap * Skew. *)
  let m = Intmat.mul (Intmat.interchange 2 0 1) (Intmat.skew 2 0 1 1) in
  let t = Template.unimodular m in
  Alcotest.check (Alcotest.list dv) "(1,0) -> (1,1)" [ v "(1,1)" ]
    (Depmap.map_vector t (v "(1,0)"));
  Alcotest.check (Alcotest.list dv) "(0,1) -> (1,0)" [ v "(1,0)" ]
    (Depmap.map_vector t (v "(0,1)"));
  (* direction values through a skew: (+,-) -> (j+i could be anything, +) *)
  Alcotest.check (Alcotest.list dv) "(+,-) -> (*,+)" [ v "(*,+)" ]
    (Depmap.map_vector t (v "(+,-)"));
  (* single-coefficient rows scale exactly, keeping +- precision *)
  let r = Template.unimodular (Intmat.reversal 2 0) in
  Alcotest.check (Alcotest.list dv) "reversal keeps +-" [ v "(+-,3)" ]
    (Depmap.map_vector r (v "(+-,3)"))

let test_reverse_permute_map_figure2 () =
  (* Figure 2(b): interchange is illegal for D = {(1,-1),(+,0)}. *)
  let inter = Template.interchange ~n:2 0 1 in
  let d' = Depmap.map_set inter [ v "(1,-1)"; v "(+,0)" ] in
  check_bool "creates lex-negative (-1,1)" true
    (Depvec.set_may_lex_negative d' <> None);
  (* Figure 2(c): reverse loop j, then interchange: legal; the paper's
     transformed set is {(1,1),(0,+)}. *)
  let revperm =
    Template.reverse_permute ~rev:[| false; true |] ~perm:[| 1; 0 |]
  in
  let d' = Depmap.map_set revperm [ v "(1,-1)"; v "(+,0)" ] in
  Alcotest.(check (list string))
    "mapped vectors" [ "(0, +)"; "(1, 1)" ] (vecs_str d');
  check_bool "no lex-negative" true (Depvec.set_may_lex_negative d' = None)

(* Table 2's entry maps, read through [Depmap.map_vector] on a one-loop
   band (an [n]-loop band for [Coalesce]): each vector's image lists the
   pairs (or the single entry) the map gives the band's entry. *)
let entry_map t (d : Depvec.t) =
  List.map Array.to_list (Depmap.map_vector ~rectangular_bands:true t d)

let pairs_of t e =
  List.map
    (function [ a; b ] -> (a, b) | _ -> Alcotest.fail "expected a pair")
    (entry_map t [| e |])

let single t d =
  match entry_map t d with [ [ e ] ] -> e | _ -> Alcotest.fail "expected one entry"

let test_parmap () =
  let p e = single (Template.parallelize_one ~n:1 0) [| e |] in
  Alcotest.check dv "0 stays" [| Depvec.dist 0 |] [| p (Depvec.dist 0) |];
  Alcotest.check dv "+ widens to +-" (v "(+-)") [| p (Depvec.dir Dir.Pos) |];
  Alcotest.check dv "3 widens to +-" (v "(+-)") [| p (Depvec.dist 3) |];
  Alcotest.check dv "0+ widens to *" (v "(*)") [| p (Depvec.dir Dir.NonNeg) |];
  (* parallelizing a dependence-free loop is legal; a carried one is not *)
  let t = Template.parallelize_one ~n:2 1 in
  check_bool "carried by pardo -> illegal" true
    (Depvec.set_may_lex_negative (Depmap.map_set t [ v "(0,+)" ]) <> None);
  check_bool "carried outside -> legal" true
    (Depvec.set_may_lex_negative (Depmap.map_set t [ v "(+,+)" ]) = None)

let test_blockmap () =
  let pairs = pairs_of (Template.block ~n:1 ~i:0 ~j:0 ~bsize:[| Expr.var "b" |]) in
  Alcotest.(check int) "zero -> 1 pair" 1 (List.length (pairs (Depvec.dist 0)));
  Alcotest.(check int) "distance 1 -> 2 pairs" 2 (List.length (pairs (Depvec.dist 1)));
  check_bool "dist 1 pairs per Table 2" true
    (pairs (Depvec.dist 1)
    = [ (Depvec.dist 0, Depvec.dist 1); (Depvec.dist 1, Depvec.dir Dir.Any) ]);
  check_bool "dist 5 block part widens to +" true
    (pairs (Depvec.dist 5)
    = [ (Depvec.dist 0, Depvec.dist 5); (Depvec.dir Dir.Pos, Depvec.dir Dir.Any) ]);
  check_bool "* -> (*,*)" true
    (pairs (Depvec.dir Dir.Any) = [ (Depvec.dir Dir.Any, Depvec.dir Dir.Any) ])

let test_block_map_fanout () =
  (* Blocking both loops of (1, 1) on a rectangular band:
     2 x 2 = 4 vectors of length 4. *)
  let t = Template.block ~n:2 ~i:0 ~j:1 ~bsize:[| Expr.var "b1"; Expr.var "b2" |] in
  let out = Depmap.map_vector ~rectangular_bands:true t (v "(1,1)") in
  check_int "fanout 4" 4 (List.length out);
  check_bool "all length 4" true (List.for_all (fun d -> Array.length d = 4) out);
  check_bool "contains (0,0,1,1)" true
    (List.exists (Builders.dv_equal (v "(0,0,1,1)")) out);
  (* Without the rectangularity guarantee, the block component of the
     second band loop is widened once the first block component is
     nonzero: 2 + 1 = 3 vectors. *)
  check_int "conservative fanout 3" 3
    (List.length (Depmap.map_vector t (v "(1,1)")))

let test_mergedirs () =
  let d s = Depvec.of_string ("(" ^ s ^ ")") in
  let m l =
    let v = Depvec.of_string l in
    [| single (Template.coalesce ~n:(Array.length v) ~i:0 ~j:(Array.length v - 1)) v |]
  in
  Alcotest.check dv "zeros then distance" (d "7") (m "(0, 0, 7)");
  Alcotest.check dv "(+,-) -> +" (d "+") (m "(+, -)");
  Alcotest.check dv "(2,-1) -> +" (d "+") (m "(2, -1)");
  Alcotest.check dv "(0+,-) -> +-" (d "+-") (m "(0+, -)")

let test_imap () =
  let imap = pairs_of (Template.interleave ~n:1 ~i:0 ~j:0 ~isize:[| Expr.var "f" |]) in
  let pairs = imap (Depvec.dist 0) in
  check_bool "zero -> (0,0)" true (pairs = [ (Depvec.dist 0, Depvec.dist 0) ]);
  let pairs = imap (Depvec.dir Dir.Pos) in
  check_int "three phase groups" 3 (List.length pairs);
  (* phase-negative pairs must force a positive strided component:
     interleaving a carried loop is illegal *)
  let t = Template.interleave ~n:1 ~i:0 ~j:0 ~isize:[| Expr.var "f" |] in
  check_bool "interleave carried loop illegal" true
    (Depvec.set_may_lex_negative (Depmap.map_set t [ v "(1)" ]) <> None);
  check_bool "interleave independent loop legal" true
    (Depvec.set_may_lex_negative (Depmap.map_set t [ v "(0)" ]) = None)

(* ------------------------------------------------------------------ *)
(* Figure 7: the matrix-multiply pipeline's dependence vectors          *)
(* ------------------------------------------------------------------ *)

let fig7_sequence () =
  [
    (* ReversePermute: perm=[3 1 2] (1-based) = [2;0;1] 0-based. *)
    Template.reverse_permute ~rev:[| false; false; false |] ~perm:[| 2; 0; 1 |];
    (* Block all three loops with symbolic sizes [bj bk bi]. *)
    Template.block ~n:3 ~i:0 ~j:2
      ~bsize:[| Expr.var "bj"; Expr.var "bk"; Expr.var "bi" |];
    (* Parallelize loops 1 and 3 (1-based) = 0 and 2. *)
    Template.parallelize [| true; false; true; false; false; false |];
    (* ReversePermute: perm=[1 3 2 4 5 6] (1-based): swap positions 1,2. *)
    Template.reverse_permute
      ~rev:(Array.make 6 false)
      ~perm:[| 0; 2; 1; 3; 4; 5 |];
    (* Coalesce loops 1..2 (1-based) = 0..1. *)
    Template.coalesce ~n:6 ~i:0 ~j:1;
  ]

let test_fig7_vectors () =
  let stages =
    List.fold_left
      (fun (ds, acc) t ->
        (* matmul is rectangular, so Table 2's exact entries apply *)
        let ds' = Depmap.map_set ~rectangular_bands:true t ds in
        (ds', ds' :: acc))
      ([ v "(0,0,+)" ], [])
      (fig7_sequence ())
  in
  let history = List.rev (snd stages) in
  let expect =
    [
      (* after ReversePermute *) [ "(0, +, 0)" ];
      (* after Block *) [ "(0, 0, 0, 0, +, 0)"; "(0, +, 0, 0, *, 0)" ];
      (* after Parallelize *) [ "(0, 0, 0, 0, +, 0)"; "(0, +, 0, 0, *, 0)" ];
      (* after ReversePermute *) [ "(0, 0, 0, 0, +, 0)"; "(0, 0, +, 0, *, 0)" ];
      (* after Coalesce *) [ "(0, 0, 0, +, 0)"; "(0, +, 0, *, 0)" ];
    ]
  in
  List.iteri
    (fun k (got, want) ->
      Alcotest.(check (list string))
        (Printf.sprintf "stage %d" (k + 1))
        (List.sort compare want) (vecs_str got))
    (List.combine history expect)

(* ------------------------------------------------------------------ *)
(* Sequence composition                                                *)
(* ------------------------------------------------------------------ *)

let test_sequence_reduce () =
  let s1 = Template.skew ~n:2 ~src:0 ~dst:1 ~factor:1 in
  let u2 = Template.unimodular (Intmat.interchange 2 0 1) in
  (match Sequence.reduce [ s1; u2 ] with
  | [ Template.Unimodular { m; _ } ] ->
    check_bool "merged matrix = product" true
      (Intmat.compare m (Intmat.mul (Intmat.interchange 2 0 1) (Intmat.skew 2 0 1 1)) = 0)
  | _ -> Alcotest.fail "expected a single Unimodular");
  (* interchange twice = identity, which reduces away entirely *)
  let i01 = Template.interchange ~n:2 0 1 in
  check_int "interchange^2 reduces to empty" 0
    (List.length (Sequence.reduce [ i01; i01 ]));
  (* reversal then interchange composes masks through the permutation *)
  let r0 = Template.reversal ~n:2 0 in
  (match Sequence.reduce [ r0; i01 ] with
  | [ Template.Reverse_permute { rev; perm; _ } ] ->
    check_bool "loop 0 still the reversed one" true (rev = [| true; false |]);
    check_bool "perm swaps" true (perm = [| 1; 0 |])
  | _ -> Alcotest.fail "expected a single ReversePermute");
  (* parallelize flags union *)
  (match
     Sequence.reduce
       [ Template.parallelize [| true; false |]; Template.parallelize [| false; true |] ]
   with
  | [ Template.Parallelize { parflag; _ } ] ->
    check_bool "union" true (parflag = [| true; true |])
  | _ -> Alcotest.fail "expected a single Parallelize")

let test_sequence_compose_semantics () =
  (* Reduction must not change the dependence mapping. *)
  let seq =
    [
      Template.skew ~n:2 ~src:0 ~dst:1 ~factor:1;
      Template.unimodular (Intmat.interchange 2 0 1);
      Template.parallelize [| false; true |];
      Template.parallelize [| true; false |];
    ]
  in
  let reduced = Sequence.reduce seq in
  check_bool "reduced is shorter" true (List.length reduced < List.length seq);
  let d0 = [ v "(1,0)"; v "(0,1)" ] in
  let map_vectors seq = List.fold_left (fun vs t -> Depmap.map_set t vs) d0 seq in
  Alcotest.(check (list string))
    "same mapped set"
    (vecs_str (map_vectors seq))
    (vecs_str (map_vectors reduced))

let test_sequence_well_formed () =
  let b = Template.block ~n:2 ~i:0 ~j:1 ~bsize:[| Expr.int 4; Expr.int 4 |] in
  check_bool "chain ok" true
    (Sequence.well_formed [ b; Template.parallelize (Array.make 4 false) ]);
  check_bool "chain broken" false
    (Sequence.well_formed [ b; Template.parallelize (Array.make 2 false) ]);
  check_int "output depth" 4 (Template.output_depth b)

(* ------------------------------------------------------------------ *)
(* Code generation                                                     *)
(* ------------------------------------------------------------------ *)

let render nest = Nest.to_string nest

let test_codegen_figure1 () =
  (* Skew j by i, then interchange; compare against Figure 1(b). *)
  let m = Intmat.mul (Intmat.interchange 2 0 1) (Intmat.skew 2 0 1 1) in
  let r = Framework.apply_exn (Builders.stencil ()) [ Template.unimodular m ] in
  let text = render r.Framework.nest in
  (* New loops named jj/ii per the paper's naming. *)
  check_bool "outer loop jj" true
    (String.length text >= 5 && String.sub text 0 5 = "do jj");
  check_bool "inits j = jj - ii and i = ii" true
    (Builders.contains ~sub:"j = jj - ii" text
    && Builders.contains ~sub:"i = ii" text);
  (* Figure 1(b) bounds: jj = 4 .. n+n-2; ii = max(2, jj-n+1) .. min(n-1, jj-2). *)
  let loops = Array.of_list r.Framework.nest.Nest.loops in
  Alcotest.(check string) "jj lower" "4" (Expr.to_string loops.(0).Nest.lo);
  (* semantic spot check of the ii bounds at n = 9, jj = 6 *)
  let env = [ ("n", Expr.int 9); ("jj", Expr.int 6) ] in
  Alcotest.(check string)
    "ii lower at (9,6)" "2"
    (Expr.to_string (Expr.subst env loops.(1).Nest.lo));
  Alcotest.(check string)
    "ii upper at (9,6)" "4"
    (Expr.to_string (Expr.subst env loops.(1).Nest.hi))

let test_codegen_figure1_semantics () =
  let m = Intmat.mul (Intmat.interchange 2 0 1) (Intmat.skew 2 0 1 1) in
  let r = Framework.apply_exn (Builders.stencil ()) [ Template.unimodular m ] in
  check_bool "stencil results identical" true
    (Builders.equivalent ~params:[ ("n", 8) ] ~orders:[ `Forward ]
       (Builders.stencil ()) r.Framework.nest)

let test_codegen_reverse_runtime_step () =
  (* ReversePermute supports runtime steps (paper Section 4.2's argument
     for preferring it over Unimodular). *)
  let nest =
    Nest.make
      [ Nest.loop ~step:(Expr.var "s") "i" Expr.one (Expr.var "n") ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "i") ]
  in
  let r = Framework.apply_exn ~vectors:[] nest [ Template.reversal ~n:1 0 ] in
  check_bool "identical including partial strides" true
    (List.for_all
       (fun s ->
         Builders.equivalent ~params:[ ("n", 13); ("s", s) ] ~orders:[ `Forward ]
           nest r.Framework.nest)
       [ 1; 2; 3; 5 ])

let test_codegen_block_triangular () =
  (* Blocking a triangular nest must produce exactly the same iterations
     (non-empty tiles only is checked separately). *)
  let t =
    Template.block ~n:2 ~i:0 ~j:1 ~bsize:[| Expr.var "b1"; Expr.var "b2" |]
  in
  let r = Framework.apply_exn (Builders.triangular ()) [ t ] in
  check_bool "same results" true
    (List.for_all
       (fun (n, b1, b2) ->
         Builders.equivalent
           ~params:[ ("n", n); ("b1", b1); ("b2", b2) ]
           ~orders:[ `Forward ] (Builders.triangular ()) r.Framework.nest)
       [ (7, 2, 3); (8, 3, 3); (5, 1, 2); (6, 10, 10) ])

let test_block_nonempty_tiles () =
  (* Count block-loop iterations whose element loops are empty: the
     paper's Table 4 construction guarantees none for triangular bounds. *)
  let t = Template.block ~n:2 ~i:0 ~j:1 ~bsize:[| Expr.int 3; Expr.int 3 |] in
  let r = Framework.apply_exn (Builders.triangular ()) [ t ] in
  let env = Builders.make_env ~params:[ ("n", 10) ] r.Framework.nest in
  (* iterate only the two outer (block) loops and check inner emptiness *)
  let loops = Array.of_list r.Framework.nest.Nest.loops in
  let empties = ref 0 and tiles = ref 0 in
  let eval e = Builders.eval env e in
  let b0 = loops.(0) and b1 = loops.(1) and e0 = loops.(2) and e1 = loops.(3) in
  let lo0 = eval b0.Nest.lo and hi0 = eval b0.Nest.hi and st0 = eval b0.Nest.step in
  let k0 = ref lo0 in
  while !k0 <= hi0 do
    Itf_exec.Env.set_scalar env b0.Nest.var !k0;
    let lo1 = eval b1.Nest.lo and hi1 = eval b1.Nest.hi and st1 = eval b1.Nest.step in
    let k1 = ref lo1 in
    while !k1 <= hi1 do
      Itf_exec.Env.set_scalar env b1.Nest.var !k1;
      incr tiles;
      (* does the tile contain at least one (i, j) iteration? *)
      let found = ref false in
      let ilo = eval e0.Nest.lo and ihi = eval e0.Nest.hi in
      for i = ilo to ihi do
        Itf_exec.Env.set_scalar env e0.Nest.var i;
        let jlo = eval e1.Nest.lo and jhi = eval e1.Nest.hi in
        if jlo <= jhi then found := true
      done;
      if not !found then incr empties;
      k1 := !k1 + st1
    done;
    k0 := !k0 + st0
  done;
  check_bool "visited several tiles" true (!tiles > 5);
  check_int "no empty tiles" 0 !empties

let test_codegen_coalesce () =
  let t = Template.coalesce ~n:3 ~i:0 ~j:2 in
  let r = Framework.apply_exn (Builders.matmul ()) [ t ] in
  check_int "single loop" 1 (Nest.depth r.Framework.nest);
  check_int "three inits" 3 (List.length r.Framework.nest.Nest.inits);
  check_bool "same results" true
    (Builders.equivalent ~params:[ ("n", 5) ] ~orders:[ `Forward ]
       (Builders.matmul ()) r.Framework.nest)

let test_codegen_coalesce_steps () =
  (* Coalescing loops with non-unit and negative steps. *)
  let nest =
    Nest.make
      [
        Nest.loop ~step:(Expr.int 2) "i" Expr.one (Expr.var "n");
        Nest.loop ~step:(Expr.int (-3)) "j" (Expr.var "n") Expr.one;
      ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
            Expr.(add (mul (var "i") (int 100)) (var "j")) );
      ]
  in
  let r = Framework.apply_exn ~vectors:[] nest [ Template.coalesce ~n:2 ~i:0 ~j:1 ] in
  check_bool "strided coalesce identical" true
    (List.for_all
       (fun n ->
         Builders.equivalent ~params:[ ("n", n) ] ~orders:[ `Forward ] nest
           r.Framework.nest)
       [ 1; 2; 5; 8 ])

let test_block_misaligned_grid () =
  (* Regression: blocking a strided loop whose lower bound depends on a
     sibling band variable (here the phase loop introduced by Interleave)
     must keep element values on the loop's grid. Found by the exhaustive
     small-world suite. *)
  let nest =
    Nest.make
      [
        Nest.loop ~step:(Expr.int (-2)) "i" (Expr.int 9) Expr.zero;
        Nest.loop "j" Expr.zero (Expr.int 4);
      ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
            Expr.(add (Load { array = "b"; index = [ var "j"; var "i" ] }) (var "i")) );
      ]
  in
  let seq =
    [
      Template.interleave ~n:2 ~i:1 ~j:1 ~isize:[| Expr.int 2 |];
      Template.block ~n:3 ~i:0 ~j:2 ~bsize:(Array.make 3 (Expr.int 2));
    ]
  in
  let r = Framework.apply_exn nest seq in
  check_bool "misaligned tiles still equivalent" true
    (Builders.equivalent ~params:[] ~orders:[ `Forward ] nest r.Framework.nest)

let test_codegen_interleave () =
  let t = Template.interleave ~n:2 ~i:1 ~j:1 ~isize:[| Expr.var "f" |] in
  let r = Framework.apply_exn (Builders.triangular ()) [ t ] in
  check_int "depth 3" 3 (Nest.depth r.Framework.nest);
  check_bool "same results for several factors" true
    (List.for_all
       (fun f ->
         Builders.equivalent ~params:[ ("n", 9); ("f", f) ] ~orders:[ `Forward ]
           (Builders.triangular ()) r.Framework.nest)
       [ 1; 2; 3; 7 ])

let test_codegen_parallelize_kinds () =
  let r =
    Framework.apply_exn (Builders.matmul ())
      [ Template.parallelize [| true; false; false |] ]
  in
  check_bool "outer pardo" true
    ((List.hd r.Framework.nest.Nest.loops).Nest.kind = Nest.Pardo);
  (* matmul's (0,0,+) is not carried by i: parallel execution is safe *)
  check_bool "parallel result identical under adversarial order" true
    (Builders.equivalent ~params:[ ("n", 6) ]
       ~orders:[ `Forward; `Reverse; `Shuffle 3 ] (Builders.matmul ())
       r.Framework.nest)

(* ------------------------------------------------------------------ *)
(* Legality                                                            *)
(* ------------------------------------------------------------------ *)

let test_legality_figure2 () =
  let d = [ v "(1,-1)"; v "(+,0)" ] in
  let nest = Builders.stencil () in
  (* interchange alone: illegal *)
  (match Legality.check ~vectors:d nest [ Template.interchange ~n:2 0 1 ] with
  | Legality.Dependence_violation _ -> ()
  | _ -> Alcotest.fail "expected dependence violation");
  (* reverse j then interchange: legal *)
  check_bool "reverse+interchange legal" true
    (Builders.is_legal ~vectors:d nest
       [ Template.reverse_permute ~rev:[| false; true |] ~perm:[| 1; 0 |] ])

let figure2_src =
  "do i = 2, n - 1\n\
  \  do j = 2, n - 1\n\
  \    a(i, j) = b(j)\n\
  \    if b(j) > 0\n\
  \      b(j) = a(i - 1, j + 1)\n\
  \    endif\n\
  \  enddo\n\
   enddo\n"

let test_figure2_real_program () =
  (* The paper's actual Figure 2(a) body, conditional included: the
     analyzer must produce D = {(1,-1), (+,0)} by itself. *)
  let nest = Itf_lang.Parser.parse_nest figure2_src in
  Alcotest.(check (list string))
    "analyzer derives the paper's D"
    (List.sort compare [ "(1, -1)"; "(+, 0)" ])
    (vecs_str (Itf_dep.Analysis.vectors nest));
  check_bool "interchange illegal (default analyzer)" false
    (Builders.is_legal nest [ Template.interchange ~n:2 0 1 ]);
  let revperm = Template.reverse_permute ~rev:[| false; true |] ~perm:[| 1; 0 |] in
  check_bool "reverse-then-interchange legal" true
    (Builders.is_legal nest [ revperm ]);
  let r = Framework.apply_exn nest [ revperm ] in
  check_bool "transformed program equivalent (guard included)" true
    (Builders.equivalent ~params:[ ("n", 10) ] ~orders:[ `Forward ] nest
       r.Framework.nest)

let test_legality_intermediate_stages_need_not_be_legal () =
  (* Figure 2 again, as a two-step sequence: step 1 (reversal) produces
     (-1,...)-style vectors — ILLEGAL alone — but reversal-then-interchange
     as a whole is fine when expressed in the right order. Here: interchange
     first gives (-1,1): illegal alone; then reversing the (new) outer loop
     fixes it. The sequence must be accepted. *)
  let d = [ v "(1,-1)" ] in
  let nest = Builders.stencil () in
  let seq = [ Template.interchange ~n:2 0 1; Template.reversal ~n:2 0 ] in
  check_bool "whole sequence legal despite illegal prefix" true
    (Builders.is_legal ~vectors:d nest seq);
  check_bool "prefix alone is illegal" true
    (not (Builders.is_legal ~vectors:d nest [ Template.interchange ~n:2 0 1 ]))

let test_legality_figure4_nonlinear_bounds () =
  let nest = Builders.sparse_matmul () in
  (* Unimodular interchange of j and k: rejected by the bounds test
     (colstr(j) is nonlinear in j). *)
  (match
     Legality.check ~vectors:[] nest
       [ Template.unimodular (Intmat.interchange 3 1 2) ]
   with
  | Legality.Bounds_violation { index = 0; violations } ->
    check_bool "mentions nonlinear" true
      (List.exists
         (fun v ->
           Builders.contains ~sub:"nonlinear"
             (Format.asprintf "%a" Itf_core.Boundsmap.pp_violation v))
         violations)
  | _ -> Alcotest.fail "expected bounds violation");
  (* ReversePermute moving i innermost: bounds of j and k are invariant in
     i, so the preconditions hold... but j's bounds are also invariant and
     k's bounds are invariant in i specifically. *)
  let perm = [| 2; 0; 1 |] in
  (* i -> innermost *)
  check_bool "ReversePermute i to innermost is ACCEPTED... by bounds" true
    (match
       Legality.check ~vectors:[] nest
         [ Template.reverse_permute ~rev:(Array.make 3 false) ~perm ]
     with
    | Legality.Legal _ -> true
    | _ -> false)

let test_legality_unimodular_rejects_runtime_step () =
  let nest =
    Nest.make
      [ Nest.loop ~step:(Expr.var "s") "i" Expr.one (Expr.var "n") ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "i") ]
  in
  (match
     Legality.check ~vectors:[] nest
       [ Template.unimodular (Intmat.reversal 1 0) ]
   with
  | Legality.Bounds_violation _ -> ()
  | _ -> Alcotest.fail "expected bounds violation for runtime step");
  (* the identity Unimodular reduces away and is accepted as a no-op *)
  check_bool "identity unimodular is a legal no-op" true
    (Builders.is_legal ~vectors:[] nest
       [ Template.unimodular (Intmat.identity 1) ]);
  (* but ReversePermute accepts it *)
  check_bool "reversal fine" true
    (Builders.is_legal ~vectors:[] nest [ Template.reversal ~n:1 0 ])

let test_legality_uses_analyzer_by_default () =
  (* matmul: interchange is legal ((0,0,+) maps fine); parallelizing k is
     illegal ((0,0,+) is carried by k). *)
  check_bool "interchange legal" true
    (Builders.is_legal (Builders.matmul ()) [ Template.interchange ~n:3 0 1 ]);
  check_bool "parallelize k illegal" false
    (Builders.is_legal (Builders.matmul ()) [ Template.parallelize_one ~n:3 2 ]);
  check_bool "parallelize i legal" true
    (Builders.is_legal (Builders.matmul ()) [ Template.parallelize_one ~n:3 0 ])

let lu_src =
  "do k = 1, n\n\
  \  do i = k + 1, n\n\
  \    do j = k + 1, n\n\
  \      a(i, j) = a(i, j) - a(i, k) * a(k, j)\n\
  \    enddo\n\
  \  enddo\n\
   enddo\n"

let test_lu_update_kernel () =
  (* Classic LU-update facts require the triangular-coupling refinement:
     every dependence is carried by k, so i and j (but not k) parallelize,
     the i/j interchange is legal, and the inner loop vectorizes. *)
  let nest = Itf_lang.Parser.parse_nest lu_src in
  let vectors = Itf_dep.Analysis.vectors nest in
  check_bool "all dependences carried by k" true
    (List.for_all
       (fun d -> Itf_core.Queries.parallelizable_loops ~depth:3 [ d ] = [ 1; 2 ])
       vectors);
  Alcotest.(check (list int))
    "i and j parallelizable" [ 1; 2 ]
    (Itf_core.Queries.parallelizable_loops ~depth:3 vectors);
  check_bool "parallelize i+j legal" true
    (Builders.is_legal nest [ Template.parallelize [| false; true; true |] ]);
  check_bool "parallelize k illegal" false
    (Builders.is_legal nest [ Template.parallelize_one ~n:3 0 ]);
  check_bool "interchange i,j legal" true
    (Builders.is_legal nest [ Template.interchange ~n:3 1 2 ]);
  (* and the parallel version is observably correct *)
  let r =
    Framework.apply_exn nest [ Template.parallelize [| false; true; true |] ]
  in
  check_bool "parallel LU update equivalent" true
    (Builders.equivalent ~params:[ ("n", 7) ]
       ~orders:[ `Forward; `Reverse; `Shuffle 13 ] nest r.Framework.nest)

let test_fig7_full_pipeline () =
  (* The Appendix A pipeline end to end: legality + code generation +
     semantic equivalence, with concrete block sizes. *)
  let seq = fig7_sequence () in
  let r = Framework.apply_exn (Builders.matmul ()) seq in
  check_int "final depth 5" 5 (Nest.depth r.Framework.nest);
  Alcotest.(check (list string))
    "final vectors"
    (List.sort compare [ "(0, 0, 0, +, 0)"; "(0, +, 0, *, 0)" ])
    (vecs_str r.Framework.vectors);
  check_bool "pipeline preserves semantics" true
    (Builders.equivalent
       ~params:[ ("n", 7); ("bi", 2); ("bj", 3); ("bk", 2) ]
       ~orders:[ `Forward; `Reverse; `Shuffle 11 ]
       (Builders.matmul ()) r.Framework.nest)

let test_legality_whole_sequence_fallback () =
  (* Skew by -1 then interchange fails ReversePermute's rectangular
     precondition at the interchange. The pair reduces to one Unimodular
     that maps (1, 0) to (-1, 1), so it stays illegal; the reversal
     completes a reduction that maps it to (1, 1), so the triple is
     legal. Extending stage by stage and asking for the verdict at the
     end must agree with [check] on the whole sequence. *)
  let nest =
    Itf_lang.Parser.parse_nest
      "do i = 2, n - 1\n\
      \  do j = 2, n - 1\n\
      \    a(i, j) = a(i - 1, j)\n\
      \  enddo\n\
       enddo\n"
  in
  let seq =
    [
      Template.skew ~n:2 ~src:0 ~dst:1 ~factor:(-1);
      Template.interchange ~n:2 0 1;
      Template.reversal ~n:2 0;
    ]
  in
  let full = Legality.check nest seq in
  (match full with
  | Legality.Legal { vectors; _ } ->
    Alcotest.(check (list string)) "reduced vectors" [ "(1, 1)" ] (vecs_str vectors)
  | v -> Alcotest.failf "expected legal, got %a" Legality.pp_verdict v);
  (match Legality.check nest (List.filteri (fun k _ -> k < 2) seq) with
  | Legality.Bounds_violation { index = 1; _ } -> ()
  | v -> Alcotest.failf "expected a bounds violation at step 1, got %a"
           Legality.pp_verdict v);
  Alcotest.(check string) "extend then verdict agrees with check"
    (Format.asprintf "%a" Legality.pp_verdict full)
    (Format.asprintf "%a" Legality.pp_verdict
       (Legality.verdict
          (List.fold_left Legality.extend (Legality.start nest) seq)))

(* ------------------------------------------------------------------ *)
(* Resumable states: reuse and concurrency                              *)
(* ------------------------------------------------------------------ *)

(* A state builds its bound matrices once, on its first [extend], and
   every later extension — from any domain — reads them. So extending one
   parent by every move twice, and from two domains at once, must still
   agree with a from-scratch [check] of the whole sequence. *)

let examples_dir () =
  List.find Sys.file_exists
    [ Filename.concat ".." (Filename.concat "examples" "nests");
      Filename.concat "examples" "nests" ]

let example_nests () =
  let dir = examples_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".loop")
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in (Filename.concat dir f) in
         let src = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (f, Itf_lang.Parser.parse_nest src))

(* What a verdict says: the final nest and vectors if legal, the
   rejection reasons otherwise; an escaping exception is part of it. *)
let summary f =
  match f () with
  | Legality.Legal { nest; vectors; _ } ->
    "legal\n" ^ Nest.to_string nest
    ^ String.concat " " (List.map Builders.dv_string vectors)
  | v ->
    String.concat "\n"
      (List.map (Format.asprintf "%a" Legality.pp_reason) (Legality.reasons v))
  | exception e -> "raised " ^ Printexc.to_string e

let extended st t () = Legality.verdict (Legality.extend st t)

let agree what label expected got =
  List.iteri
    (fun k (e, g) ->
      Alcotest.(check string) (Printf.sprintf "%s %s move %d" what label k) e g)
    (List.combine expected got)

let extend_all moves st = List.map (fun t -> summary (extended st t)) moves

(* Extend [st] (the state of [prefix] on [root]) by every move twice in a
   row. Returns what the concurrent pass needs: the moves, the expected
   verdicts and a fresh copy of the parent, whose cell is still empty. *)
let check_parent what root prefix st =
  let vectors = Itf_dep.Analysis.vectors root in
  let depth =
    List.fold_left (fun _ t -> Template.output_depth t) (Nest.depth root) prefix
  in
  let moves = Builders.moves ~depth in
  let expected =
    List.map
      (fun t -> summary (fun () -> Legality.check ~vectors root (prefix @ [ t ])))
      moves
  in
  agree what "first pass" expected (extend_all moves st);
  agree what "second pass" expected (extend_all moves st);
  let fresh =
    List.fold_left Legality.extend (Legality.start ~vectors root) prefix
  in
  (what, moves, expected, fresh)

(* Two domains extend every fresh parent by every move, in the same
   order, so they race on each parent's empty cell. *)
let check_concurrent parents =
  let run () = List.map (fun (_, moves, _, st) -> extend_all moves st) parents in
  let ds = List.init 2 (fun _ -> Domain.spawn run) in
  List.iteri
    (fun d results ->
      List.iter2
        (fun (what, _, expected, _) got ->
          agree what (Printf.sprintf "domain %d" d) expected got)
        parents results)
    (List.map Domain.join ds)

(* The empty prefix and every prefix of [seq] that chains, each with its
   state. *)
let prefix_states root seq =
  let rec go st prefix acc = function
    | [] -> List.rev acc
    | t :: rest -> (
      match Legality.extend st t with
      | st' ->
        let prefix' = prefix @ [ t ] in
        go st' prefix' ((prefix', st') :: acc) rest
      | exception Invalid_argument _ -> List.rev acc)
  in
  let st0 = Legality.start root in
  go st0 [] [ ([], st0) ] seq

let test_state_reuse_examples () =
  List.map
    (fun (name, root) ->
      let st0 = Legality.start root in
      (* the root, and every single move, as parents *)
      List.map
        (fun (prefix, st) -> check_parent name root prefix st)
        (([], st0)
        :: List.map
             (fun t -> ([ t ], Legality.extend st0 t))
             (Builders.moves ~depth:(Nest.depth root))))
    (example_nests ())
  |> List.concat |> check_concurrent

let test_state_reuse_fallback () =
  (* Skew then interchange breaks ReversePermute's rectangular
     precondition stage by stage; the pair is legal only as its reduced
     single Unimodular, so the parent is a fallback state. *)
  let root =
    Itf_lang.Parser.parse_nest
      "do i = 2, n - 1\n\
      \  do j = 2, n - 1\n\
      \    a(i, j) = a(i - 1, j) + a(i, j - 1)\n\
      \  enddo\n\
       enddo\n"
  in
  let skew = Template.skew ~n:2 ~src:0 ~dst:1 ~factor:1 in
  let interchange = Template.interchange ~n:2 0 1 in
  let skewed_nest =
    match Legality.check root [ skew ] with
    | Legality.Legal { nest; _ } -> nest
    | _ -> Alcotest.fail "skew should be legal"
  in
  check_bool "interchange fails stage by stage" true
    (Itf_core.Boundsmap.check (Itf_bounds.Bmat.of_nest skewed_nest) interchange
    <> []);
  let prefix = [ skew; interchange ] in
  match Legality.check root prefix with
  | Legality.Legal _ ->
    let st = Legality.extend (Legality.extend (Legality.start root) skew) interchange in
    check_concurrent [ check_parent "skew+interchange" root prefix st ]
  | _ -> Alcotest.fail "skew then interchange should be legal through its reduction"

let test_state_reuse_generated () =
  let rs = Random.State.make [| 17 |] in
  List.init 300 (fun k ->
      let { Itf_check.Gen.nest; seq; _ } = Itf_check.Gen.case rs in
      List.map
        (fun (prefix, st) ->
          check_parent (Printf.sprintf "case %d" k) nest prefix st)
        (prefix_states nest (match seq with t :: _ -> [ t ] | [] -> [])))
  |> List.concat |> check_concurrent

(* ------------------------------------------------------------------ *)
(* Families: what siblings share equals a computation from scratch     *)
(* ------------------------------------------------------------------ *)

module Costmodel = Itf_opt.Costmodel
module Access = Itf_bounds.Access

type family_totals = {
  mutable candidates : int;  (** legal one- and two-move candidates *)
  mutable rendered : int;  (** renderings through a parent's family *)
  mutable inherited : int;  (** candidates sharing the parent's forms *)
}

let outcome f =
  match f () with x -> Ok x | exception e -> Error (Printexc.to_string e)

let estimate_bits (e : Costmodel.estimate) =
  (Int64.bits_of_float e.Costmodel.score, Int64.bits_of_float e.Costmodel.bound)

let family_roots = ref 0

(* Every legal candidate one and two [Search.move_set] from [root], grown
   the way the engine grows them: each parent state extended by every
   move, so siblings share the parent's family. For each child: the
   parent family's rendering equals [Codegen.apply] on the bare parent
   nest (which builds a family of its own); the verdict, nest, vectors
   and rejection reasons equal [Legality.check] from the root; the
   reference forms, inherited or not, equal [Access.of_nest] of the
   nest; and every tier-0 estimate of an estimator shared by the root's
   candidates is bit-equal to a fresh estimator's on the fresh forms. *)
let check_family totals ~what ~sizes root =
  incr family_roots;
  let root_id = !family_roots in
  let vectors = Itf_dep.Analysis.vectors root in
  let estimators =
    List.concat_map
      (fun params ->
        List.map
          (fun objective ->
            let spec =
              snd
                (Result.get_ok
                   (Itf_opt.Search.of_name objective ~procs:8 ~params))
            in
            let estimate = Costmodel.estimate spec in
            (spec, fun refs result -> estimate ~refs result))
          [ "locality"; "parallel" ])
      sizes
  in
  let fail seq fmt =
    Alcotest.failf
      ("%s, %a: " ^^ fmt)
      what Itf_core.Sequence.pp seq
  in
  let child parent (parent_nest, family) seq t =
    let st = Legality.extend parent t in
    totals.rendered <- totals.rendered + 1;
    if
      outcome (fun () -> Codegen.apply ~family:(Lazy.force family) parent_nest t)
      <> outcome (fun () -> Codegen.apply parent_nest t)
    then fail seq "the parent family renders another nest";
    let shared = Legality.verdict st in
    let fresh = Legality.check ~vectors root seq in
    match (shared, fresh) with
    | ( Legality.Legal { nest; vectors = vs; _ },
        Legality.Legal { nest = nest'; vectors = vs'; _ } ) ->
      if nest <> nest' then fail seq "the nest differs from a fresh check";
      if vs <> vs' then fail seq "the vectors differ from a fresh check";
      totals.candidates <- totals.candidates + 1;
      let forms = Access.of_nest nest in
      let refs =
        match Legality.references st with
        | Some (refs, how) ->
          if how = Legality.Inherited then
            totals.inherited <- totals.inherited + 1;
          if refs <> forms then fail seq "the reference forms differ";
          refs
        | None -> forms
      in
      let result =
        { Framework.nest; vectors = vs; derivation = 0; root = root_id }
      in
      List.iter
        (fun (spec, estimate) ->
          if
            estimate_bits (estimate (fun () -> refs) result)
            <> estimate_bits (Costmodel.estimate spec result)
          then fail seq "a tier-0 estimate differs")
        estimators;
      Some (st, (nest, lazy (Family.make nest vs)))
    | Legality.Legal _, _ | _, Legality.Legal _ ->
      fail seq "the verdict differs from a fresh check"
    | _ ->
      if Legality.reasons shared <> Legality.reasons fresh then
        fail seq "the rejection reasons differ from a fresh check";
      None
  in
  let moves depth = Builders.moves ~depth in
  let st0 = Legality.start ~vectors root in
  let family0 = lazy (Family.make root vectors) in
  List.iter
    (fun m1 ->
      match child st0 (root, family0) [ m1 ] m1 with
      | None -> ()
      | Some (s1, ((nest1, _) as parent1)) ->
        List.iter
          (fun m2 -> ignore (child s1 parent1 [ m1; m2 ] m2))
          (moves (Nest.depth nest1)))
    (moves (Nest.depth root))

let family_nest_files () =
  List.concat_map
    (fun dir ->
      let dir = Filename.concat ".." dir in
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

(* Examples and e2e nests (estimates at n = 8 to 32), the corpus and
   1,000 [Gen] nests. The totals are pinned, so a change in what is
   shared or inherited shows here. *)
let test_family_equivalence () =
  let totals = { candidates = 0; rendered = 0; inherited = 0 } in
  List.iter
    (fun (file, root) ->
      check_family totals ~what:file
        ~sizes:(List.map (fun n -> [ ("n", n) ]) [ 8; 12; 16; 24; 32 ])
        root)
    (family_nest_files ());
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.sort compare
  |> List.iter (fun f ->
         let c = Itf_check.Repro.load (Filename.concat "corpus" f) in
         check_family totals ~what:f ~sizes:[ c.Itf_check.Gen.params ]
           c.Itf_check.Gen.nest);
  let st = Random.State.make [| 7 |] in
  for k = 1 to 1000 do
    let c = Itf_check.Gen.case st in
    check_family totals
      ~what:(Printf.sprintf "Gen case %d" k)
      ~sizes:[ c.Itf_check.Gen.params ] c.Itf_check.Gen.nest
  done;
  check_int "legal candidates" 102_208 totals.candidates;
  check_int "renderings through a parent family" 195_566 totals.rendered;
  check_int "candidates sharing their parent's forms" 59_710 totals.inherited

let () =
  Alcotest.run "core"
    [
      ( "template",
        [
          Alcotest.test_case "validation" `Quick test_template_validation;
          Alcotest.test_case "depths" `Quick test_template_depths;
        ] );
      ( "depmap",
        [
          Alcotest.test_case "unimodular" `Quick test_unimodular_map;
          Alcotest.test_case "reverse-permute (fig 2)" `Quick
            test_reverse_permute_map_figure2;
          Alcotest.test_case "parmap" `Quick test_parmap;
          Alcotest.test_case "blockmap" `Quick test_blockmap;
          Alcotest.test_case "block fanout" `Quick test_block_map_fanout;
          Alcotest.test_case "mergedirs" `Quick test_mergedirs;
          Alcotest.test_case "imap" `Quick test_imap;
          Alcotest.test_case "figure 7 vector history" `Quick test_fig7_vectors;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "reduction rules" `Quick test_sequence_reduce;
          Alcotest.test_case "reduction preserves mapping" `Quick
            test_sequence_compose_semantics;
          Alcotest.test_case "well-formedness" `Quick test_sequence_well_formed;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "figure 1 output" `Quick test_codegen_figure1;
          Alcotest.test_case "figure 1 semantics" `Quick test_codegen_figure1_semantics;
          Alcotest.test_case "reverse with runtime step" `Quick
            test_codegen_reverse_runtime_step;
          Alcotest.test_case "block triangular semantics" `Quick
            test_codegen_block_triangular;
          Alcotest.test_case "block creates no empty tiles" `Quick
            test_block_nonempty_tiles;
          Alcotest.test_case "block misaligned grid regression" `Quick
            test_block_misaligned_grid;
          Alcotest.test_case "coalesce" `Quick test_codegen_coalesce;
          Alcotest.test_case "coalesce with strides" `Quick test_codegen_coalesce_steps;
          Alcotest.test_case "interleave" `Quick test_codegen_interleave;
          Alcotest.test_case "parallelize kinds" `Quick test_codegen_parallelize_kinds;
        ] );
      ( "legality",
        [
          Alcotest.test_case "figure 2" `Quick test_legality_figure2;
          Alcotest.test_case "figure 2 real program (guarded)" `Quick
            test_figure2_real_program;
          Alcotest.test_case "illegal intermediate stages ok" `Quick
            test_legality_intermediate_stages_need_not_be_legal;
          Alcotest.test_case "figure 4 nonlinear bounds" `Quick
            test_legality_figure4_nonlinear_bounds;
          Alcotest.test_case "runtime step rejection" `Quick
            test_legality_unimodular_rejects_runtime_step;
          Alcotest.test_case "default analyzer" `Quick
            test_legality_uses_analyzer_by_default;
          Alcotest.test_case "figure 7 end to end" `Quick test_fig7_full_pipeline;
          Alcotest.test_case "LU update kernel" `Quick test_lu_update_kernel;
          Alcotest.test_case "whole-sequence fallback" `Quick
            test_legality_whole_sequence_fallback;
        ] );
      ( "states",
        [
          Alcotest.test_case "reused parents: examples" `Quick
            test_state_reuse_examples;
          Alcotest.test_case "reused parents: reduced-only prefix" `Quick
            test_state_reuse_fallback;
          Alcotest.test_case "reused parents: generated nests" `Quick
            test_state_reuse_generated;
        ] );
      ( "family",
        [
          Alcotest.test_case "shared work equals a fresh check" `Slow
            test_family_equivalence;
        ] );
    ]
