(* Tests for dependence directions, vectors, and the analyzer (lib/dep). *)

open Itf_ir
module Dir = Itf_dep.Dir
module Depvec = Itf_dep.Depvec
module Analysis = Itf_dep.Analysis

let check_bool = Alcotest.(check bool)
let dv = Builders.dv

(* ------------------------------------------------------------------ *)
(* Dir                                                                 *)
(* ------------------------------------------------------------------ *)

let all_dirs = Dir.[ Zero; Pos; Neg; NonNeg; NonPos; NonZero; Any ]

let test_dir_contains () =
  check_bool "+ has 3" true (Dir.contains Dir.Pos 3);
  check_bool "+ lacks 0" false (Dir.contains Dir.Pos 0);
  check_bool "0+ has 0" true (Dir.contains Dir.NonNeg 0);
  check_bool "+- lacks 0" false (Dir.contains Dir.NonZero 0);
  check_bool "+- has -5" true (Dir.contains Dir.NonZero (-5));
  check_bool "* has everything" true
    (List.for_all (Dir.contains Dir.Any) [ -7; 0; 9 ])

let test_dir_reverse () =
  let open Dir in
  check_bool "rev +" true (equal (reverse Pos) Neg);
  check_bool "rev 0+" true (equal (reverse NonNeg) NonPos);
  check_bool "rev +- " true (equal (reverse NonZero) NonZero);
  check_bool "rev *" true (equal (reverse Any) Any);
  check_bool "rev 0" true (equal (reverse Zero) Zero);
  (* involution *)
  check_bool "involution" true
    (List.for_all (fun d -> equal (reverse (reverse d)) d) all_dirs)

let test_dir_union_subset () =
  let open Dir in
  check_bool "+ u - = +-" true (equal (union Pos Neg) NonZero);
  check_bool "0 u + = 0+" true (equal (union Zero Pos) NonNeg);
  check_bool "0+ u - = *" true (equal (union NonNeg Neg) Any);
  check_bool "subset + 0+" true (subset Pos NonNeg);
  check_bool "not subset 0+ +" false (subset NonNeg Pos);
  (* union is the lattice join w.r.t. subset *)
  check_bool "union upper bound" true
    (List.for_all
       (fun a -> List.for_all (fun b -> subset a (union a b) && subset b (union a b)) all_dirs)
       all_dirs)

let test_dir_merge_lex () =
  let open Dir in
  (* mergedirs semantics (paper Table 2): outer sign wins unless zero *)
  check_bool "merge + - = +" true (equal (merge_lex Pos Neg) Pos);
  check_bool "merge - + = -" true (equal (merge_lex Neg Pos) Neg);
  check_bool "merge 0 d = d" true
    (List.for_all (fun d -> equal (merge_lex Zero d) d) all_dirs);
  check_bool "merge 0+ - = +-" true (equal (merge_lex NonNeg Neg) NonZero);
  check_bool "merge 0+ + = +" true (equal (merge_lex NonNeg Pos) Pos);
  check_bool "merge +- anything = +-" true
    (equal (merge_lex NonZero Any) NonZero);
  check_bool "merge * * = *" true (equal (merge_lex Any Any) Any)

(* Exhaustive check of merge_lex against the defining semantics: the sign
   of outer*N + inner for N large. *)
let test_dir_merge_lex_semantics () =
  let sample d = List.filter (Dir.contains d) [ -2; -1; 0; 1; 2 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let merged = Dir.merge_lex a b in
          (* every realizable combined sign must be contained *)
          List.iter
            (fun xa ->
              List.iter
                (fun xb ->
                  let combined = (xa * 1000) + xb in
                  check_bool
                    (Printf.sprintf "merge %s %s covers %d" ((Format.asprintf "%a" Dir.pp) a)
                       ((Format.asprintf "%a" Dir.pp) b) combined)
                    true
                    (Dir.contains merged combined))
                (sample b))
            (sample a))
        all_dirs)
    all_dirs

(* ------------------------------------------------------------------ *)
(* Depvec                                                              *)
(* ------------------------------------------------------------------ *)

let v = Depvec.of_string

let test_parse_print () =
  Alcotest.(check string) "roundtrip" "(1, -1)" (Builders.dv_string (v "(1, -1)"));
  Alcotest.(check string) "dirs" "(0+, *, +-)" (Builders.dv_string (v "(0+, *, +-)"));
  Alcotest.check dv "dir zero normalizes to distance 0" (v "(0)")
    [| Depvec.dir Dir.Zero |]

(* The legality test's question of one vector: does [Tuples(d)] hold a
   lexicographically negative tuple? *)
let may_lex_negative d = Depvec.set_may_lex_negative [ d ] <> None

let test_lex_negative () =
  check_bool "(1,-1) ok" false (may_lex_negative (v "(1, -1)"));
  check_bool "(-1,1) bad" true (may_lex_negative (v "(-1, 1)"));
  check_bool "(0,+) ok" false (may_lex_negative (v "(0, +)"));
  check_bool "(0,-) bad" true (may_lex_negative (v "(0, -)"));
  check_bool "(+,anything) ok" false (may_lex_negative (v "(+, *)"));
  check_bool "(*,0) bad" true (may_lex_negative (v "(*, 0)"));
  check_bool "(0+,-) bad: prefix can be zero" true
    (may_lex_negative (v "(0+, -)"));
  check_bool "(+-, *) bad" true (may_lex_negative (v "(+-, *)"));
  check_bool "zero vector ok" false (may_lex_negative (v "(0, 0)"))

let test_lex_positive_definite () =
  (* Every tuple is lex-positive: none is lex-negative and the zero tuple
     is not denoted. *)
  let definite d =
    (not (may_lex_negative d)) && not (Builders.dv_mem d (Array.make (Array.length d) 0))
  in
  check_bool "(0,+)" true (definite (v "(0, +)"));
  check_bool "(0,0+) not definite" false (definite (v "(0, 0+)"));
  check_bool "(1,-1)" true (definite (v "(1, -1)"))

let test_mem_subset () =
  check_bool "mem" true (Builders.dv_mem (v "(0+, *)") [| 0; -5 |]);
  check_bool "not mem" false (Builders.dv_mem (v "(0+, *)") [| -1; 2 |]);
  check_bool "subset" true (Builders.dv_subset (v "(1, 0)") (v "(+, 0+)"));
  check_bool "not subset" false (Builders.dv_subset (v "(+, 0)") (v "(1, 0)"))

let test_dedupe () =
  let ds = [ v "(1, 0)"; v "(1, 0)"; v "(+, 0)"; v "(0, 1)" ] in
  let r = Depvec.dedupe ds in
  (* (1,0) is subsumed by (+,0) *)
  Alcotest.(check int) "dedupe size" 2 (List.length r);
  check_bool "keeps (+,0)" true (List.exists (Builders.dv_equal (v "(+, 0)")) r);
  check_bool "keeps (0,1)" true (List.exists (Builders.dv_equal (v "(0, 1)")) r)

(* Property: may_lex_negative agrees with brute-force tuple enumeration. *)
let gen_elem =
  QCheck.Gen.(
    oneof
      [
        map Depvec.dist (int_range (-3) 3);
        map Depvec.dir
          (oneofl Dir.[ Zero; Pos; Neg; NonNeg; NonPos; NonZero; Any ]);
      ])

let arb_vec =
  QCheck.make ~print:Builders.dv_string
    QCheck.Gen.(map Array.of_list (list_size (int_range 1 4) gen_elem))

let enumerate_tuples (d : Depvec.t) =
  let range e = List.filter (Builders.elem_contains e) [ -4; -3; -2; -1; 0; 1; 2; 3; 4 ] in
  Array.fold_right
    (fun e acc ->
      List.concat_map (fun x -> List.map (fun tl -> x :: tl) acc) (range e))
    d [ [] ]

let lex_negative tuple =
  let rec go = function
    | [] -> false
    | 0 :: rest -> go rest
    | x :: _ -> x < 0
  in
  go tuple

let prop_lex_negative_bruteforce =
  QCheck.Test.make ~name:"may_lex_negative = brute force over small tuples"
    ~count:500 arb_vec (fun d ->
      (* restrict to vectors whose distances are within the sampled range *)
      let small =
        Array.for_all
          (function Depvec.Dist n -> abs n <= 4 | Depvec.Dir _ -> true)
          d
      in
      QCheck.assume small;
      may_lex_negative d = List.exists lex_negative (enumerate_tuples d))

(* ------------------------------------------------------------------ *)
(* Analyzer                                                            *)
(* ------------------------------------------------------------------ *)

let a_ij = Expr.Load { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] }

let stencil_nest () =
  (* Figure 1(a): 5-point stencil. *)
  let idx di dj =
    Expr.Load
      {
        array = "a";
        index = [ Expr.(add (var "i") (int di)); Expr.(add (var "j") (int dj)) ];
      }
  in
  Nest.make
    [
      Nest.loop "i" (Expr.int 2) Expr.(sub (var "n") (int 1));
      Nest.loop "j" (Expr.int 2) Expr.(sub (var "n") (int 1));
    ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
          Expr.(
            div
              (add a_ij (add (idx (-1) 0) (add (idx 0 (-1)) (add (idx 1 0) (idx 0 1)))))
              (int 5)) );
    ]

let test_stencil_vectors () =
  let vs = Analysis.vectors (stencil_nest ()) in
  Alcotest.(check (list string))
    "stencil D = {(0,1),(1,0)}" [ "(0, 1)"; "(1, 0)" ]
    (List.sort compare (List.map Builders.dv_string vs))

let matmul_nest () =
  Nest.make
    [
      Nest.loop "i" Expr.one (Expr.var "n");
      Nest.loop "j" Expr.one (Expr.var "n");
      Nest.loop "k" Expr.one (Expr.var "n");
    ]
    [
      Stmt.Store
        ( { array = "A"; index = [ Expr.var "i"; Expr.var "j" ] },
          Expr.(
            add
              (Load { array = "A"; index = [ var "i"; var "j" ] })
              (mul
                 (Load { array = "B"; index = [ var "i"; var "k" ] })
                 (Load { array = "C"; index = [ var "k"; var "j" ] }))) );
    ]

let test_matmul_vectors () =
  let vs = Analysis.vectors (matmul_nest ()) in
  Alcotest.(check (list string))
    "matmul D = {(0,0,+)}  (paper fig 7 START: (=,=,+))" [ "(0, 0, +)" ]
    (List.map Builders.dv_string vs)

let test_matmul_kinds () =
  let ds = Analysis.dependences (matmul_nest ()) in
  let kinds =
    List.sort_uniq compare (List.map (fun d -> d.Analysis.kind) ds)
  in
  check_bool "flow, anti and output all found" true
    (kinds = [ Analysis.Flow; Analysis.Anti; Analysis.Output ])

let test_banerjee_prunes_far_distance () =
  (* do i = 1, 10: a(i) = a(i+20): distance 20 exceeds the iteration range,
     so there is no dependence. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.int 10) ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i" ] },
            Expr.Load { array = "a"; index = [ Expr.(add (var "i") (int 20)) ] } );
      ]
  in
  Alcotest.(check int) "no vectors" 0 (List.length (Analysis.vectors nest))

let test_symbolic_bounds_keep_distance () =
  (* Same subscripts but symbolic upper bound: the distance-20 anti
     dependence must be reported. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i" ] },
            Expr.Load { array = "a"; index = [ Expr.(add (var "i") (int 20)) ] } );
      ]
  in
  Alcotest.(check (list string))
    "anti distance 20" [ "(20)" ]
    (List.map Builders.dv_string (Analysis.vectors nest))

let test_gcd_prunes () =
  (* a(2i) = a(2i+1): 2d = 1 has no integer solution. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.(mul (int 2) (var "i")) ] },
            Expr.Load
              { array = "a"; index = [ Expr.(add (mul (int 2) (var "i")) (int 1)) ] }
          );
      ]
  in
  Alcotest.(check int) "no vectors" 0 (List.length (Analysis.vectors nest))

let test_coupled_subscript_directions () =
  (* a(i+j) = a(i+j-1): the distance in (i,j) is not unique; direction
     vectors must cover e.g. (0,1) and (1,-1). *)
  let nest =
    Nest.make
      [
        Nest.loop "i" Expr.one (Expr.var "n");
        Nest.loop "j" Expr.one (Expr.var "n");
      ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.(add (var "i") (var "j")) ] },
            Expr.Load
              { array = "a"; index = [ Expr.(sub (add (var "i") (var "j")) (int 1)) ] }
          );
      ]
  in
  let vs = Analysis.vectors nest in
  check_bool "covers (0,1)" true
    (List.exists (fun d -> Builders.dv_mem d [| 0; 1 |]) vs);
  check_bool "covers (1,-1)" true
    (List.exists (fun d -> Builders.dv_mem d [| 1; -1 |]) vs);
  check_bool "covers (1, 0)?? flow through same sum" true
    (List.exists (fun d -> Builders.dv_mem d [| 1; 0 |]) vs);
  (* and no vector admits a lex-negative tuple *)
  check_bool "no lex-negative" true
    (Depvec.set_may_lex_negative vs = None)

let test_nonaffine_subscript_conservative () =
  (* a(rowidx(i)) = ...: non-affine subscript must produce a conservative
     vector covering both directions of the loop. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.Call ("rowidx", [ Expr.var "i" ]) ] },
            Expr.Load { array = "a"; index = [ Expr.Call ("rowidx", [ Expr.var "i" ]) ] }
          );
      ]
  in
  let vs = Analysis.vectors nest in
  check_bool "conservative + direction reported" true
    (List.exists (fun d -> Builders.dv_mem d [| 3 |]) vs)

let test_no_dep_between_different_arrays () =
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i" ] },
            Expr.Load { array = "b"; index = [ Expr.var "i" ] } );
      ]
  in
  Alcotest.(check int) "independent" 0 (List.length (Analysis.vectors nest))

let test_reversed_loop_dependence () =
  (* do i = n, 1, -1: a(i) = a(i-1): in iteration-number space the
     dependence is the anti direction: a(i-1) is written later. *)
  let nest =
    Nest.make
      [ Nest.loop ~step:(Expr.int (-1)) "i" (Expr.var "n") Expr.one ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i" ] },
            Expr.Load { array = "a"; index = [ Expr.(sub (var "i") (int 1)) ] } );
      ]
  in
  Alcotest.(check (list string))
    "anti dependence distance 1 in iteration space" [ "(1)" ]
    (List.map Builders.dv_string (Analysis.vectors nest))

let test_scalar_dependences () =
  (* x carries a value across iterations: every pair of iterations
     conflicts through x, so the dependence set must serialize the loop. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        Stmt.Set ("x", Expr.Load { array = "a"; index = [ Expr.(sub (var "i") (int 1)) ] });
        Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "x");
      ]
  in
  let vs = Analysis.vectors nest in
  check_bool "covers every positive distance" true
    (List.for_all (fun d -> List.exists (fun v -> Builders.dv_mem v [| d |]) vs) [ 1; 2; 5 ]);
  (* a scalar read before any write in the same iteration still conflicts
     with other iterations' writes *)
  check_bool "nonempty" true (vs <> [])

let test_scalar_only_same_iteration_is_free () =
  (* x is written then read within one iteration and never crosses
     iterations... but a 0-dim scalar cannot express privatization, so the
     analyzer must still be conservative and serialize. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        Stmt.Set ("x", Expr.(mul (var "i") (int 2)));
        Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "x");
      ]
  in
  let vs = Analysis.vectors nest in
  (* output dependence of x on itself across iterations *)
  check_bool "conservatively serialized" true
    (List.exists (fun v -> Builders.dv_mem v [| 1 |]) vs)

let test_scalar_independent_body () =
  (* no scalars assigned: reads of parameters like n are not refs *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i" ] },
            Expr.(add (var "n") (var "i")) );
      ]
  in
  Alcotest.(check int) "no vectors" 0 (List.length (Analysis.vectors nest))

(* Every dependent pair of array accesses one run of [nest] performs
   (same cell, at least one write, distinct iterations) that no vector of
   [Analysis.vectors] covers. An aligned loop (invariant lower bound, or
   unit step) is compared by counter distance, the value difference over
   the step; a loop on grids shifted per outer iteration only by the
   step-corrected sign of the value difference. *)
let missed_pairs ~params (nest : Nest.t) =
  let vs = Analysis.vectors nest in
  let loops = Array.of_list nest.Nest.loops in
  let mentions_loop e =
    Array.exists (fun (l : Nest.loop) -> Expr.mentions l.Nest.var e) loops
  in
  let step (l : Nest.loop) = Option.value ~default:1 (Expr.to_int l.Nest.step) in
  let contains k (e : Depvec.elem) v1 v2 =
    let s = step loops.(k) in
    if abs s = 1 || not (mentions_loop loops.(k).Nest.lo) then
      Builders.elem_contains e ((v2 - v1) / s)
    else Dir.contains (Depvec.elem_dir e) (compare (v2 - v1) 0 * compare s 0)
  in
  let covered i1 i2 =
    List.exists
      (fun v -> Array.for_all Fun.id (Array.mapi (fun k e -> contains k e i1.(k) i2.(k)) v))
      vs
  in
  let env = Itf_check.Oracle.make_env ~params nest in
  let cells = Hashtbl.create 64 in
  let cur = ref [||] in
  Itf_exec.Env.set_tracer env
    (Some
       (fun { Itf_exec.Env.array; flat; kind } ->
         let key = (array, flat) in
         let prev = Option.value ~default:[] (Hashtbl.find_opt cells key) in
         Hashtbl.replace cells key ((!cur, kind = Itf_exec.Env.Write) :: prev)));
  Itf_exec.Interp.run ~on_iteration:(fun it -> cur := it) env nest;
  let missed = ref [] in
  Hashtbl.iter
    (fun _ accesses ->
      let rec pairs = function
        | [] -> ()
        | (i2, w2) :: earlier ->
          List.iter
            (fun (i1, w1) ->
              if (w1 || w2) && i1 <> i2 && not (covered i1 i2) then
                missed := (i1, i2) :: !missed)
            earlier;
          pairs earlier
      in
      pairs accesses)
    cells;
  !missed

(* Triangular nest soundness: regression for the shared-symbol
   normalization of non-rectangular bounds. *)
let test_triangular_soundness () =
  let nest =
    Nest.make
      [
        Nest.loop "i" Expr.zero (Expr.int 3);
        Nest.loop "j" (Expr.var "i") (Expr.int 6);
      ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "j" ] },
            Expr.add
              (Expr.Load { array = "a"; index = [ Expr.(sub (var "j") (int 1)) ] })
              (Expr.Load { array = "b"; index = [ Expr.var "i" ] }) );
      ]
  in
  Alcotest.(check int) "no missed dependent pairs" 0
    (List.length (missed_pairs ~params:[] nest))

(* The same brute force over a seeded stream of generated nests (negative
   and non-unit steps, triangular and clamped bounds, statically empty
   ranges, guards, scalar temporaries), each run with its own params. *)
let test_generated_soundness () =
  let st = Random.State.make [| 42 |] in
  for index = 0 to 599 do
    let { Itf_check.Gen.nest; params; _ } = Itf_check.Gen.case st in
    match missed_pairs ~params nest with
    | [] -> ()
    | (i1, i2) :: _ ->
      let pp = Fmt.(brackets (array ~sep:comma int)) in
      Alcotest.failf "case %d: vectors %a miss %a -> %a in\n%s" index
        Fmt.(list ~sep:sp Depvec.pp) (Analysis.vectors nest) pp i1 pp i2
        (Nest.to_string nest)
  done

(* A statically empty outer range leaves no dependence, even though the
   bounds are symbolic: [n - 1 > n - 2] for every [n]. *)
let test_empty_symbolic_range () =
  let nest =
    Itf_lang.Parser.parse_nest
      "do i = n - 1, n - 2\n  do j = i, i + 2\n    a(j) = a(j - 1) + 1\n  enddo\nenddo\n"
  in
  Alcotest.(check (list dv)) "no vectors" [] (Analysis.vectors nest)

let test_lu_vectors () =
  let nest =
    Itf_lang.Parser.parse_nest
      "do k = 1, n\n  do i = k + 1, n\n    do j = k + 1, n\n\
      \      a(i, j) = a(i, j) - a(i, k) * a(k, j)\n    enddo\n  enddo\nenddo\n"
  in
  Alcotest.(check (list dv)) "LU"
    [ Depvec.of_string "(+, 0, *)"; Depvec.of_string "(+, *, 0)" ]
    (Analysis.vectors nest)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_lex_negative_bruteforce ]

let () =
  Alcotest.run "dep"
    [
      ( "dir",
        [
          Alcotest.test_case "contains" `Quick test_dir_contains;
          Alcotest.test_case "reverse" `Quick test_dir_reverse;
          Alcotest.test_case "union/subset" `Quick test_dir_union_subset;
          Alcotest.test_case "merge_lex table" `Quick test_dir_merge_lex;
          Alcotest.test_case "merge_lex semantics" `Quick test_dir_merge_lex_semantics;
        ] );
      ( "depvec",
        [
          Alcotest.test_case "parse/print" `Quick test_parse_print;
          Alcotest.test_case "lex negativity" `Quick test_lex_negative;
          Alcotest.test_case "lex positive definite" `Quick test_lex_positive_definite;
          Alcotest.test_case "membership/subset" `Quick test_mem_subset;
          Alcotest.test_case "dedupe" `Quick test_dedupe;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "stencil (fig 1a)" `Quick test_stencil_vectors;
          Alcotest.test_case "matmul (fig 6)" `Quick test_matmul_vectors;
          Alcotest.test_case "matmul kinds" `Quick test_matmul_kinds;
          Alcotest.test_case "banerjee prunes far distances" `Quick
            test_banerjee_prunes_far_distance;
          Alcotest.test_case "symbolic bounds keep distances" `Quick
            test_symbolic_bounds_keep_distance;
          Alcotest.test_case "gcd prunes" `Quick test_gcd_prunes;
          Alcotest.test_case "coupled subscripts" `Quick
            test_coupled_subscript_directions;
          Alcotest.test_case "non-affine conservative" `Quick
            test_nonaffine_subscript_conservative;
          Alcotest.test_case "different arrays independent" `Quick
            test_no_dep_between_different_arrays;
          Alcotest.test_case "negative-step loop" `Quick test_reversed_loop_dependence;
          Alcotest.test_case "scalar carries values" `Quick test_scalar_dependences;
          Alcotest.test_case "scalar temporary serializes" `Quick
            test_scalar_only_same_iteration_is_free;
          Alcotest.test_case "parameters are not refs" `Quick
            test_scalar_independent_body;
          Alcotest.test_case "triangular nest soundness" `Quick
            test_triangular_soundness;
          Alcotest.test_case "generated nest soundness" `Quick
            test_generated_soundness;
          Alcotest.test_case "statically empty symbolic range" `Quick
            test_empty_symbolic_range;
          Alcotest.test_case "LU vectors" `Quick test_lu_vectors;
        ] );
      ("properties", qcheck_tests);
    ]
