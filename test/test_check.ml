(* Tests for the differential oracle harness (Itf_check) and regression
   tests for the bugs it surfaced. The corpus under corpus/ freezes the
   shrunk reproducer of every divergence a fuzz run has found; replaying
   it keeps past failures fixed. *)

open Itf_ir
module T = Itf_core.Template
module Legality = Itf_core.Legality
module Codegen = Itf_core.Codegen
module Queries = Itf_core.Queries
module Analysis = Itf_dep.Analysis
module Harness = Itf_check.Harness
module Oracle = Itf_check.Oracle
module Repro = Itf_check.Repro

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let nest s = Itf_lang.Parser.parse_nest s

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                       *)
(* ------------------------------------------------------------------ *)

let corpus_dir () =
  (* dune runs tests from the test directory; be tolerant of a manual
     `dune exec test/test_check.exe` from the repository root. *)
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_files () =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_corpus_replays_clean () =
  let files = corpus_files () in
  check_bool "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      match Harness.replay (Repro.load path) with
      | Oracle.Diverged ds ->
        Alcotest.failf "%s diverges: %s" path
          (Format.asprintf "%a" Harness.pp_divergences ds)
      | _ -> ())
    files

let test_corpus_roundtrip () =
  List.iter
    (fun path ->
      let case = Repro.load path in
      let copy = Filename.temp_file "roundtrip" ".repro" in
      Repro.save copy case;
      let case' = Repro.load copy in
      Sys.remove copy;
      check_bool (path ^ " round-trips") true
        (Nest.equal case.Itf_check.Gen.nest case'.Itf_check.Gen.nest
        && case.Itf_check.Gen.seq = case'.Itf_check.Gen.seq
        && case.Itf_check.Gen.params = case'.Itf_check.Gen.params))
    (corpus_files ())

(* ------------------------------------------------------------------ *)
(* Fixed-seed smoke run                                                *)
(* ------------------------------------------------------------------ *)

let test_fuzz_smoke () =
  let report = Harness.fuzz ~seed:42 ~budget:200 () in
  check_int "all cases judged" 200 report.Harness.cases;
  check_bool "some legal cases executed" true (report.Harness.legal_ok > 0);
  check_bool "some rejections confirmed" true
    (report.Harness.confirmed_rejections > 0);
  check_int "no skips" 0 report.Harness.skipped;
  (match report.Harness.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "seed 42 case %d diverges: %s" f.Harness.index
      (Format.asprintf "%a" Harness.pp_divergences f.Harness.divergences));
  (* determinism: the same seed judges cases identically *)
  let report' = Harness.fuzz ~seed:42 ~budget:200 () in
  check_int "deterministic legal count" report.Harness.legal_ok
    report'.Harness.legal_ok;
  check_int "deterministic rejection count" report.Harness.rejected_dependence
    report'.Harness.rejected_dependence

(* ------------------------------------------------------------------ *)
(* Regression: shifted-grid dependence analysis (fuzz seed 1)          *)
(* ------------------------------------------------------------------ *)

(* do j = i, i+3, 3 puts j on a grid shifted per i: b(j+1) and b(j-3)
   intersect across i (j = 4 reads what j = 0 wrote) even though
   3*dt = 4 has no solution on a shared grid. The pre-fix analyzer
   conflated the residual i symbols of source and sink and proved
   independence, so parallelizing i was approved and diverged. *)
let test_analysis_shifted_grid () =
  let n =
    nest
      {|do i = 0, 1
  do j = i, i + 3, 3
    b(j + 1) = (b(j - 3) + 1) mod 9973
  enddo
enddo|}
  in
  let vectors = Analysis.vectors n in
  check_bool "outer loop carries the b dependence" false
    (List.mem 0 (Queries.parallelizable_loops ~depth:2 vectors));
  match Legality.check n [ T.parallelize_one ~n:2 0 ] with
  | Legality.Legal _ -> Alcotest.fail "parallelize 0 must be rejected"
  | _ -> ()

(* Same conflation on an output dependence: the pre-fix analyzer reported
   no vectors at all for this nest. *)
let test_analysis_shifted_grid_output () =
  let n =
    nest
      {|do i = 1, 0, -1
  do j = i - 1, i - 1, 3
    do k = -1, 0
      c(j + k - 3, j - i) = (a(k + i + 1, k - 1) + c(j + k - 3, j - i)) mod 9973
    enddo
  enddo
enddo|}
  in
  let vectors = Analysis.vectors n in
  check_bool "vectors found at all" true (vectors <> []);
  check_bool "outer loop carries the c output dependence" false
    (List.mem 0 (Queries.parallelizable_loops ~depth:3 vectors))

(* ------------------------------------------------------------------ *)
(* Regression: unimodular mapping on shifted grids (fuzz seed 1)       *)
(* ------------------------------------------------------------------ *)

(* The skew i' = i + j is illegal here: the output dependence on
   a(k-j-2, 2j+3) is (1, 0, 0) in value space but (1, -1, 0) over the
   step-normalized counters the matrix acts on, so the skewed nest visits
   the dependent pair in reverse. The pre-fix plain d' = M d rule mapped
   (+, 0, 0-) to a lex-positive image and approved it. *)
let test_depmap_skew_shifted_grid () =
  let n =
    nest
      {|do i = 1, 0, -1
  do j = i - 1, i - 3, -1
    do k = j - 1, j - 1, -1
      a(k - j - 2, 2 * j + 3) = (c(j + i, 2 * i + 1) + 3) mod 9973
    enddo
  enddo
enddo|}
  in
  let m = Builders.of_rows [ [ 1; 1; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ] in
  (match Legality.check n [ T.unimodular m ] with
  | Legality.Legal _ -> Alcotest.fail "shifted-grid skew must be rejected"
  | Legality.Dependence_violation _ -> ()
  | v ->
    Alcotest.failf "expected a dependence violation, got %s"
      (Format.asprintf "%a" Legality.pp_verdict v));
  (* the same matrix stays legal on an aligned variant of the nest: the
     conversion must not widen components whose grids are shared *)
  let aligned =
    nest
      {|do i = 1, 0, -1
  do j = -1, -3, -1
    do k = j - 1, j - 1, -1
      a(k - j - 2, 2 * j + 3) = (c(j + i, 2 * i + 1) + 3) mod 9973
    enddo
  enddo
enddo|}
  in
  match Legality.check aligned [ T.unimodular m ] with
  | Legality.Legal _ -> ()
  | v ->
    Alcotest.failf "aligned skew should stay legal, got %s"
      (Format.asprintf "%a" Legality.pp_verdict v)

(* ------------------------------------------------------------------ *)
(* Regression: pardo markings must survive only supported (fuzz seed 1) *)
(* ------------------------------------------------------------------ *)

(* Blocking do i / pardo j with a (1, 1) dependence is legal, but the
   block loop derived from j now carries (0, 1, 1, any) and must come out
   sequential; the element loop inside the tile stays parallel. *)
let test_block_pardo_demotion () =
  let n =
    nest
      {|do i = 0, 1
  pardo j = 0, 2
    b(j - i + 3) = c(2 * j - 3, j + 3) mod 9973
  enddo
enddo|}
  in
  let t =
    T.block ~n:2 ~i:0 ~j:1 ~bsize:[| Expr.int 3; Expr.int 2 |]
  in
  match Legality.check n [ t ] with
  | Legality.Legal { nest = out; _ } ->
    let kinds =
      List.map (fun (l : Nest.loop) -> l.Nest.kind) out.Nest.loops
    in
    (match kinds with
    | [ Nest.Do; jj; Nest.Do; je ] ->
      check_bool "block loop of j demoted to sequential" true (jj = Nest.Do);
      check_bool "element loop of j stays parallel" true (je = Nest.Pardo)
    | _ -> Alcotest.failf "unexpected output depth %d" (List.length kinds))
  | v ->
    Alcotest.failf "blocking should be legal, got %s"
      (Format.asprintf "%a" Legality.pp_verdict v)

(* ------------------------------------------------------------------ *)
(* Regression: codegen guards (satellites)                             *)
(* ------------------------------------------------------------------ *)

let test_normalize_steps_symbolic () =
  let n =
    nest {|do i = 0, 9, n
  a(i, 0) = i
enddo|}
  in
  let m = Builders.of_rows [ [ -1 ] ] in
  Alcotest.check_raises "symbolic step rejected"
    (Invalid_argument "Codegen.normalize_steps: non-constant step") (fun () ->
      ignore (Codegen.apply n (T.unimodular m)))

let test_coalesce_empty_band () =
  (* A statically empty loop in the band must not generate div/mod by a
     zero iteration count. *)
  let n =
    nest
      {|do i = 0, 4
  do j = 3, 1
    a(i, j) = i + j
  enddo
enddo|}
  in
  let out = Codegen.apply n (T.coalesce ~n:2 ~i:0 ~j:1) in
  check_int "single loop" 1 (List.length out.Nest.loops);
  let l = List.hd out.Nest.loops in
  check_bool "coalesced loop statically empty" true
    (Expr.to_int l.Nest.hi = Some (-1));
  let no_zero_div =
    let rec ok (e : Expr.t) =
      match e with
      | Expr.Div (a, b) | Expr.Mod (a, b) ->
        Expr.to_int b <> Some 0 && ok a && ok b
      | Expr.Int _ | Expr.Var _ -> true
      | Expr.Neg a -> ok a
      | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b)
      | Expr.Min (a, b) | Expr.Max (a, b) -> ok a && ok b
      | Expr.Load { index; _ } -> List.for_all ok index
      | Expr.Call (_, args) -> List.for_all ok args
    in
    List.for_all
      (function Stmt.Set (_, e) -> ok e | _ -> true)
      out.Nest.inits
  in
  check_bool "no division by a zero count in inits" true no_zero_div

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "check"
    [
      ( "corpus",
        [
          Alcotest.test_case "replays clean" `Quick test_corpus_replays_clean;
          Alcotest.test_case "round-trips" `Quick test_corpus_roundtrip;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "fixed-seed smoke" `Slow test_fuzz_smoke ] );
      ( "regressions",
        [
          Alcotest.test_case "analysis: shifted-grid flow dep" `Quick
            test_analysis_shifted_grid;
          Alcotest.test_case "analysis: shifted-grid output dep" `Quick
            test_analysis_shifted_grid_output;
          Alcotest.test_case "depmap: skew on shifted grid" `Quick
            test_depmap_skew_shifted_grid;
          Alcotest.test_case "legality: block pardo demotion" `Quick
            test_block_pardo_demotion;
          Alcotest.test_case "codegen: symbolic step rejected" `Quick
            test_normalize_steps_symbolic;
          Alcotest.test_case "codegen: coalesce empty band" `Quick
            test_coalesce_empty_band;
        ] );
    ]
