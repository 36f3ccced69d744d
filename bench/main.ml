(* Benchmark & reproduction harness.

   Running [dune exec bench/main.exe] regenerates every table and figure of
   the paper's presentation (Figures 1-7, Tables 1-4 — the paper is a
   framework paper, so these worked examples ARE its evaluation), then runs
   the quantitative "shape" experiments on the simulated machine (locality,
   parallelism), and finally a bechamel micro-benchmark suite of the
   framework's own operations. See DESIGN.md (experiment index) and
   EXPERIMENTS.md (paper-vs-measured record).

   [dune exec bench/main.exe -- --quick] skips the bechamel suite. *)

open Itf_ir
module T = Itf_core.Template
module F = Itf_core.Framework
module L = Itf_core.Legality
module Depmap = Itf_core.Depmap
module Depvec = Itf_dep.Depvec
module Intmat = Itf_mat.Intmat
module Cache = Itf_machine.Cache
module Memsim = Itf_machine.Memsim
module Json = Itf_obs.Json
module Tracer = Itf_obs.Tracer

(* Every BENCH_*.json this harness writes is versioned: bump "schema" when
   a field changes meaning so downstream comparisons refuse stale files.
   BENCH_search.json is at 9 (schema 8 plus the gated cold cases, so
   --baseline reads schema 9 only); BENCH_sim.json stays at 3. *)
let write_bench_json ?(schema = 3) path fields =
  let oc = open_out path in
  output_string oc
    (Json.to_string (Json.Obj (("schema", Json.Int schema) :: fields)));
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %s@." path

let section name =
  Format.printf "@.================================================================@.";
  Format.printf "%s@." name;
  Format.printf "================================================================@."

let pp_vectors ppf vs =
  List.iter (fun v -> Format.fprintf ppf " %a" Depvec.pp v) vs

(* ------------------------------------------------------------------ *)
(* Shared nests                                                        *)
(* ------------------------------------------------------------------ *)

let stencil () =
  Itf_lang.Parser.parse_nest
    "do i = 2, n - 1\n\
    \  do j = 2, n - 1\n\
    \    a(i, j) = (a(i, j) + a(i - 1, j) + a(i, j - 1) + a(i + 1, j) + a(i, \
     j + 1)) / 5\n\
    \  enddo\n\
     enddo\n"

let matmul () =
  Itf_lang.Parser.parse_nest
    "do i = 1, n\n\
    \  do j = 1, n\n\
    \    do k = 1, n\n\
    \      A(i, j) = A(i, j) + B(i, k) * C(k, j)\n\
    \    enddo\n\
    \  enddo\n\
     enddo\n"

let sparse () =
  Itf_lang.Parser.parse_nest
    "function colstr\n\
     function rowidx\n\
     do i = 1, n\n\
    \  do j = 1, n\n\
    \    do k = colstr(j), colstr(j + 1) - 1\n\
    \      a(i, j) = a(i, j) + b(i, rowidx(k)) * c(k)\n\
    \    enddo\n\
    \  enddo\n\
     enddo\n"

let triangular () =
  Itf_lang.Parser.parse_nest
    "do i = 1, n\n  do j = i, n\n    a(i, j) = i + j\n  enddo\nenddo\n"

let lu () =
  Itf_lang.Parser.parse_nest
    "do k = 1, n\n\
    \  do i = k + 1, n\n\
    \    do j = k + 1, n\n\
    \      a(i, j) = a(i, j) - a(i, k) * a(k, j)\n\
    \    enddo\n\
    \  enddo\n\
     enddo\n"

(* [nest] with every array renamed by [suffix]: a nest no table of the
   process has seen, whose search is cold, with the same answer. *)
let renamed suffix (nest : Nest.t) =
  let rec expr (e : Expr.t) : Expr.t =
    match e with
    | Int _ | Var _ -> e
    | Neg a -> Neg (expr a)
    | Add (a, b) -> Add (expr a, expr b)
    | Sub (a, b) -> Sub (expr a, expr b)
    | Mul (a, b) -> Mul (expr a, expr b)
    | Div (a, b) -> Div (expr a, expr b)
    | Mod (a, b) -> Mod (expr a, expr b)
    | Min (a, b) -> Min (expr a, expr b)
    | Max (a, b) -> Max (expr a, expr b)
    | Load { array; index } ->
      Load { array = array ^ suffix; index = List.map expr index }
    | Call (f, args) -> Call (f, List.map expr args)
  in
  let rec stmt (s : Stmt.t) : Stmt.t =
    match s with
    | Stmt.Store ({ array; index }, rhs) ->
      Stmt.Store ({ array = array ^ suffix; index = List.map expr index }, expr rhs)
    | Stmt.Set (v, rhs) -> Stmt.Set (v, expr rhs)
    | Stmt.Guard g ->
      Stmt.Guard
        { g with lhs = expr g.lhs; rhs = expr g.rhs; body = List.map stmt g.body }
  in
  {
    Nest.loops =
      List.map
        (fun (l : Nest.loop) ->
          { l with Nest.lo = expr l.Nest.lo; hi = expr l.Nest.hi; step = expr l.Nest.step })
        nest.Nest.loops;
    inits = List.map stmt nest.Nest.inits;
    body = List.map stmt nest.Nest.body;
  }

let fig1_matrix () = Intmat.mul (Intmat.interchange 2 0 1) (Intmat.skew 2 0 1 1)

let fig7_sequence () =
  [
    T.reverse_permute ~rev:[| false; false; false |] ~perm:[| 2; 0; 1 |];
    T.block ~n:3 ~i:0 ~j:2
      ~bsize:[| Expr.var "bj"; Expr.var "bk"; Expr.var "bi" |];
    T.parallelize [| true; false; true; false; false; false |];
    T.reverse_permute ~rev:(Array.make 6 false) ~perm:[| 0; 2; 1; 3; 4; 5 |];
    T.coalesce ~n:6 ~i:0 ~j:1;
  ]

(* ------------------------------------------------------------------ *)
(* EXP-T1: Table 1 — the kernel set                                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "EXP-T1 | Table 1: kernel set of transformation templates";
  List.iter
    (fun (t, desc) ->
      Format.printf "%-16s %s@." (T.name t) desc;
      Format.printf "%-16s e.g. %a@." "" T.pp t)
    [
      ( T.unimodular (fig1_matrix ()),
        "n x n unimodular matrix M mapping iteration vectors" );
      ( T.reverse_permute ~rev:[| false; true |] ~perm:[| 1; 0 |],
        "reverse masked loops, then permute loop positions" );
      (T.parallelize [| true; false |], "flagged loops become pardo");
      ( T.block ~n:2 ~i:0 ~j:1 ~bsize:[| Expr.var "b1"; Expr.var "b2" |],
        "tile contiguous loops i..j with block-size expressions" );
      (T.coalesce ~n:2 ~i:0 ~j:1, "collapse contiguous loops i..j into one");
      ( T.interleave ~n:2 ~i:1 ~j:1 ~isize:[| Expr.var "f" |],
        "split loops i..j into interleaved (strided) phases" );
    ]

(* ------------------------------------------------------------------ *)
(* EXP-F1: Figure 1                                                    *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "EXP-F1 | Figure 1: skew + interchange of the 5-point stencil";
  let nest = stencil () in
  Format.printf "(a) input:@.%a@." Nest.pp nest;
  let r = F.apply_exn nest [ T.unimodular (fig1_matrix ()) ] in
  Format.printf "(b) transformed, with initialization statements:@.%a@."
    Nest.pp r.F.nest;
  Format.printf
    "paper (b): do jj = 4, n+n-2 / do ii = max(2, jj-n+1), min(n-1, jj-2)@."

(* ------------------------------------------------------------------ *)
(* EXP-F2: Figure 2                                                    *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "EXP-F2 | Figure 2: interchange legality for D = {(1,-1), (+,0)}";
  (* The paper's actual program, conditional included; the analyzer
     derives D itself. *)
  let nest =
    Itf_lang.Parser.parse_nest
      "do i = 2, n - 1\n\
      \  do j = 2, n - 1\n\
      \    a(i, j) = b(j)\n\
      \    if b(j) > 0\n\
      \      b(j) = a(i - 1, j + 1)\n\
      \    endif\n\
      \  enddo\n\
       enddo\n"
  in
  Format.printf "(a) program:@.%a@." Nest.pp nest;
  let d = Itf_dep.Analysis.vectors nest in
  Format.printf "analyzer-derived D:%a  (paper: {(1,-1), (+,0)})@." pp_vectors d;
  (match L.check ~vectors:d nest [ T.interchange ~n:2 0 1 ] with
  | L.Dependence_violation { vector } ->
    Format.printf
      "(b) plain interchange: ILLEGAL — transformed vector %a is lex-negative@."
      Depvec.pp vector
  | _ -> Format.printf "(b) plain interchange: unexpected verdict@.");
  let revperm = T.reverse_permute ~rev:[| false; true |] ~perm:[| 1; 0 |] in
  match L.check ~vectors:d nest [ revperm ] with
  | L.Legal { vectors; _ } ->
    Format.printf "(c) reverse j then interchange: LEGAL — D' =%a@."
      pp_vectors vectors;
    Format.printf "paper (c): D' = {(1,1), (0,+)}@."
  | _ -> Format.printf "(c) unexpected verdict@."

(* ------------------------------------------------------------------ *)
(* EXP-T2: Table 2 — dependence-vector mapping rules                   *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "EXP-T2 | Table 2: dependence-vector mapping rules (samples)";
  let show name t inputs =
    List.iter
      (fun s ->
        let d = Depvec.of_string s in
        Format.printf "%-14s %-12s ->%a@." name s pp_vectors
          (Depmap.map_vector ~rectangular_bands:true t d))
      inputs
  in
  show "Unimodular" (T.unimodular (fig1_matrix ())) [ "(1,0)"; "(0,1)"; "(+,-)" ];
  show "ReversePerm"
    (T.reverse_permute ~rev:[| false; true |] ~perm:[| 1; 0 |])
    [ "(1,-1)"; "(+,0)"; "(0+,*)" ];
  show "Parallelize" (T.parallelize [| false; true |])
    [ "(0,1)"; "(+,+)"; "(0,0+)" ];
  show "Block"
    (T.block ~n:2 ~i:1 ~j:1 ~bsize:[| Expr.var "b" |])
    [ "(0,0)"; "(0,1)"; "(+,3)"; "(0,*)" ];
  show "Coalesce" (T.coalesce ~n:2 ~i:0 ~j:1) [ "(0,1)"; "(1,-1)"; "(0+,-)" ];
  show "Interleave"
    (T.interleave ~n:2 ~i:1 ~j:1 ~isize:[| Expr.var "f" |])
    [ "(0,0)"; "(+,0)"; "(0,1)" ]

(* ------------------------------------------------------------------ *)
(* EXP-T34: Tables 3 & 4 — code generation per template                *)
(* ------------------------------------------------------------------ *)

let table34 () =
  section
    "EXP-T34 | Tables 3-4: loop-bounds mapping and initialization statements";
  let demo name nest seq =
    Format.printf "---- %s ----@." name;
    match F.apply ~vectors:[] nest seq with
    | Ok r -> Format.printf "%a@." Nest.pp r.F.nest
    | Error v -> Format.printf "rejected: %a@." L.pp_verdict v
  in
  let rect =
    Itf_lang.Parser.parse_nest
      "do i = 1, n\n  do j = 1, m, s\n    a(i, j) = i + j\n  enddo\nenddo\n"
  in
  demo "ReversePermute (runtime step, reverse j and swap)" rect
    [ T.reverse_permute ~rev:[| false; true |] ~perm:[| 1; 0 |] ];
  demo "Parallelize both loops" rect [ T.parallelize [| true; true |] ];
  demo "Unimodular skew (steps normalized to 1 first)"
    (Itf_lang.Parser.parse_nest
       "do i = 1, n, 2\n  do j = 1, n\n    a(i, j) = i + j\n  enddo\nenddo\n")
    [ T.skew ~n:2 ~src:0 ~dst:1 ~factor:1 ];
  demo "Block a triangular nest (only non-empty tiles)" (triangular ())
    [ T.block ~n:2 ~i:0 ~j:1 ~bsize:[| Expr.var "b1"; Expr.var "b2" |] ];
  demo "Coalesce both loops (div/mod delinearization)" rect
    [ T.coalesce ~n:2 ~i:0 ~j:1 ];
  demo "Interleave the inner loop by factor f" rect
    [ T.interleave ~n:2 ~i:1 ~j:1 ~isize:[| Expr.var "f" |] ]

(* ------------------------------------------------------------------ *)
(* EXP-F4: Figure 4                                                    *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "EXP-F4 | Figure 4: triangular interchange; nonlinear sparse bounds";
  let tri = triangular () in
  Format.printf "(a) triangular input:@.%a@." Nest.pp tri;
  (match F.apply ~vectors:[] tri [ T.unimodular (Intmat.interchange 2 0 1) ] with
  | Ok r -> Format.printf "(b) interchanged by Unimodular:@.%a@." Nest.pp r.F.nest
  | Error _ -> Format.printf "(b) unexpected rejection@.");
  let sp = sparse () in
  Format.printf "(c) sparse-matrix product:@.%a@." Nest.pp sp;
  (match L.check ~vectors:[] sp [ T.unimodular (Intmat.interchange 3 1 2) ] with
  | L.Bounds_violation { violations; _ } ->
    Format.printf "Unimodular interchange(j,k) rejected:@.";
    List.iter
      (fun v -> Format.printf "  %a@." Itf_core.Boundsmap.pp_violation v)
      violations
  | _ -> Format.printf "unexpected verdict@.");
  match
    F.apply ~vectors:[] sp
      [ T.reverse_permute ~rev:(Array.make 3 false) ~perm:[| 2; 0; 1 |] ]
  with
  | Ok r ->
    Format.printf "ReversePermute (i innermost) ACCEPTED:@.%a@." Nest.pp r.F.nest
  | Error _ -> Format.printf "unexpected rejection@."

(* ------------------------------------------------------------------ *)
(* EXP-F5: Figure 5                                                    *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "EXP-F5 | Figure 5: LB/UB/STEP coefficient matrices";
  let nest =
    Nest.make
      [
        Nest.loop ~step:(Expr.int 2) "i"
          Expr.(max_ (var "n") (int 3))
          (Expr.int 100);
        Nest.loop "j" Expr.one Expr.(min_ (int 2) (add (var "i") (int 512)));
        Nest.loop ~step:(Expr.var "i") "k"
          Expr.(div (Call ("sqrt", [ var "i" ])) (int 2))
          Expr.(mul (int 2) (var "j"));
      ]
      [ Stmt.Set ("x", Expr.var "k") ]
  in
  Format.printf "%a@." Nest.pp nest;
  let bm = Itf_bounds.Bmat.of_nest nest in
  Format.printf "%a@." Itf_bounds.Bmat.pp bm;
  Format.printf "type(u2, i) = %a (paper: linear)@." Itf_bounds.Btype.pp
    (Itf_bounds.Bmat.btype bm Itf_bounds.Bmat.U ~loop:1 ~wrt:0);
  Format.printf "type(l3, i) = %a (paper: nonlinear)@." Itf_bounds.Btype.pp
    (Itf_bounds.Bmat.btype bm Itf_bounds.Bmat.L ~loop:2 ~wrt:0);
  Format.printf "type(u3, j) = %a (paper: linear)@." Itf_bounds.Btype.pp
    (Itf_bounds.Bmat.btype bm Itf_bounds.Bmat.U ~loop:2 ~wrt:1);
  Format.printf "type(s3, i) = %a (paper: linear)@." Itf_bounds.Btype.pp
    (Itf_bounds.Bmat.btype bm Itf_bounds.Bmat.S ~loop:2 ~wrt:0)

(* ------------------------------------------------------------------ *)
(* EXP-F67: Figures 6 & 7                                              *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "EXP-F67 | Figures 6-7: the matrix-multiply pipeline, stage by stage";
  let nest = matmul () in
  Format.printf "START: vectors:%a@." pp_vectors (Itf_dep.Analysis.vectors nest);
  let seq = fig7_sequence () in
  List.iteri
    (fun k t ->
      let prefix = List.filteri (fun idx _ -> idx <= k) seq in
      match F.apply nest prefix with
      | Ok r ->
        Format.printf "@.step %d: %s@.vectors:%a@." (k + 1) (T.name t)
          pp_vectors r.F.vectors;
        Format.printf "%a@." Nest.pp r.F.nest
      | Error v ->
        Format.printf "step %d unexpectedly illegal: %a@." (k + 1)
          L.pp_verdict v)
    seq;
  Format.printf
    "@.paper Figure 7 vector history:@.  (=,=,+) -> (=,+,=) -> {(=,=,=,=,+,=), (=,+,=,=,*,=)} -> unchanged ->@.  {(=,=,=,=,+,=), (=,=,+,=,*,=)} -> {(=,=,=,+,=), (=,+,=,*,=)}@."

(* ------------------------------------------------------------------ *)
(* EXP-LOC: locality shape experiment                                  *)
(* ------------------------------------------------------------------ *)

let cache_cfg = { Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 }

let matmul_misses nest n =
  let env = Itf_exec.Env.create () in
  Itf_exec.Env.set_scalar env "n" n;
  List.iter
    (fun a ->
      Itf_exec.Env.declare_array env a [ (1, n); (1, n) ];
      let d = Itf_exec.Env.array_data env a in
      Array.iteri (fun k _ -> d.(k) <- k mod 7) d)
    [ "A"; "B"; "C" ];
  (Memsim.simulate cache_cfg env nest).Memsim.cache

let locality () =
  section "EXP-LOC | blocking improves locality (8KiB 2-way cache, 64B lines)";
  let nest = matmul () in
  let blocked b =
    (F.apply_exn nest
       [ T.block ~n:3 ~i:0 ~j:2 ~bsize:(Array.make 3 (Expr.int b)) ])
      .F.nest
  in
  Format.printf "%6s %12s %14s %14s %8s@." "n" "accesses" "misses(orig)"
    "misses(b=8)" "factor";
  List.iter
    (fun n ->
      let s0 = matmul_misses nest n in
      let s8 = matmul_misses (blocked 8) n in
      Format.printf "%6d %12d %14d %14d %7.1fx@." n s0.Cache.accesses
        s0.Cache.misses s8.Cache.misses
        (float s0.Cache.misses /. float (max 1 s8.Cache.misses)))
    [ 16; 32; 48; 64 ];
  Format.printf "@.block-size sweep at n = 48:@.";
  let s0 = matmul_misses nest 48 in
  Format.printf "%8s misses = %d@." "none" s0.Cache.misses;
  List.iter
    (fun b ->
      let s = matmul_misses (blocked b) 48 in
      Format.printf "%8d misses = %d@." b s.Cache.misses)
    [ 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* EXP-PAR: parallel speedup shape experiment                          *)
(* ------------------------------------------------------------------ *)

(* [time_compiled] resolves every access site, so the arrays are declared
   (bounds only: the parallel model reads no value). *)
let par_env ~n nest =
  let env = Itf_exec.Env.create () in
  Itf_exec.Env.set_scalar env "n" n;
  List.iter
    (fun (a, arity) ->
      Itf_exec.Env.declare_array env a (List.init arity (fun _ -> (1, n))))
    (Nest.array_arities nest);
  env

let parallel () =
  section "EXP-PAR | parallelization speedup (simulated machine)";
  let nest = matmul () in
  let par = (F.apply_exn nest [ T.parallelize_one ~n:3 0 ]).F.nest in
  let env = par_env ~n:24 par in
  Format.printf "matmul n=24, pardo i:@.";
  Format.printf "%8s %12s %10s@." "procs" "time" "speedup";
  List.iter
    (fun p ->
      let t = Itf_machine.Parallel.time_compiled ~procs:p env par in
      let s = Itf_machine.Parallel.speedup ~procs:p env par in
      Format.printf "%8d %12.0f %9.2fx@." p t s)
    [ 1; 2; 4; 8; 16; 32 ];
  let tri = triangular () in
  let tri_par = (F.apply_exn tri [ T.parallelize_one ~n:2 0 ]).F.nest in
  let env2 = par_env ~n:64 tri_par in
  Format.printf "@.triangular nest n=64 on 8 procs:@.";
  Format.printf "%-28s speedup %5.2fx@." "pardo i (imbalanced rows)"
    (Itf_machine.Parallel.speedup ~procs:8 env2 tri_par);
  let tri_blocked =
    F.apply_exn tri
      [
        T.block ~n:2 ~i:0 ~j:0 ~bsize:[| Expr.int 4 |];
        T.parallelize [| false; true; false |];
      ]
  in
  Format.printf "%-28s speedup %5.2fx@." "block i by 4, pardo i"
    (Itf_machine.Parallel.speedup ~procs:8 env2 tri_blocked.F.nest)

(* ------------------------------------------------------------------ *)
(* EXP-COMP: composition pays                                          *)
(* ------------------------------------------------------------------ *)

let composition () =
  section "EXP-COMP | Section 2: composing unimodular stages before applying";
  let nest = stencil () in
  let stages =
    [
      T.skew ~n:2 ~src:0 ~dst:1 ~factor:1;
      T.unimodular (Intmat.interchange 2 0 1);
      T.unimodular (Intmat.skew 2 0 1 (-1));
      T.unimodular (Intmat.interchange 2 0 1);
    ]
  in
  let reduced = Itf_core.Sequence.reduce stages in
  Format.printf "sequence of %d unimodular stages reduces to %d template(s)@."
    (List.length stages) (List.length reduced);
  (match reduced with
  | [ T.Unimodular { m; _ } ] -> Format.printf "combined matrix:@.%a@." Intmat.pp m
  | _ -> ());
  let time_of f =
    let t0 = Sys.time () in
    for _ = 1 to 500 do
      ignore (f ())
    done;
    Sys.time () -. t0
  in
  let t_seq = time_of (fun () -> L.check nest stages) in
  let t_red = time_of (fun () -> L.check nest reduced) in
  Format.printf
    "500 legality checks: stage-by-stage %.3fs vs composed %.3fs (%.1fx)@."
    t_seq t_red
    (t_seq /. Float.max 1e-9 t_red)

(* ------------------------------------------------------------------ *)
(* EXP-LU: a full workout on the LU update kernel                      *)
(* ------------------------------------------------------------------ *)

let lu_demo () =
  section "EXP-LU | end-to-end workout: the LU update kernel";
  let nest =
    Itf_lang.Parser.parse_nest
      "do k = 1, n\n\
      \  do i = k + 1, n\n\
      \    do j = k + 1, n\n\
      \      a(i, j) = a(i, j) - a(i, k) * a(k, j)\n\
      \    enddo\n\
      \  enddo\n\
       enddo\n"
  in
  Format.printf "%a@." Nest.pp nest;
  let vectors = Itf_dep.Analysis.vectors nest in
  Format.printf
    "dependence vectors (triangular coupling resolved by the FM refinement):%a@."
    pp_vectors vectors;
  Format.printf "parallelizable loops: %s@."
    (String.concat ", "
       (List.map string_of_int
          (Itf_core.Queries.parallelizable_loops ~depth:3 vectors)));
  match
    F.apply nest
      [
        T.parallelize [| false; true; true |];
        T.block ~n:3 ~i:1 ~j:2 ~bsize:[| Expr.int 8; Expr.int 8 |];
      ]
  with
  | Ok r ->
    Format.printf "parallelize i,j then block them by 8: LEGAL@.%a@." Nest.pp
      r.F.nest
  | Error v -> Format.printf "unexpected: %a@." L.pp_verdict v

(* ------------------------------------------------------------------ *)
(* EXP-ABL1: trapezoid-aware blocking vs bounding-box blocking         *)
(* ------------------------------------------------------------------ *)

(* The paper's Table 4 blocking generates only non-empty tiles; the
   contrasting scheme it cites ([14]) draws a rectangular bounding box
   around a trapezoidal iteration space and visits many empty tiles. *)
let ablation_blocking () =
  section
    "EXP-ABL1 | ablation: Table 4 blocking vs rectangular bounding box (triangular nest)";
  let b = 4 in
  let tri = triangular () in
  let paper =
    (F.apply_exn ~vectors:[] tri
       [ T.block ~n:2 ~i:0 ~j:1 ~bsize:[| Expr.int b; Expr.int b |] ])
      .F.nest
  in
  (* Bounding-box variant: both block loops span the full 1..n range. *)
  let naive =
    Nest.make
      [
        Nest.loop ~step:(Expr.int b) "ii" Expr.one (Expr.var "n");
        Nest.loop ~step:(Expr.int b) "jj" Expr.one (Expr.var "n");
        Nest.loop "i"
          Expr.(max_ (var "ii") (int 1))
          Expr.(min_ (add (var "ii") (int (b - 1))) (var "n"));
        Nest.loop "j"
          Expr.(max_ (var "jj") (var "i"))
          Expr.(min_ (add (var "jj") (int (b - 1))) (var "n"));
      ]
      [
        Itf_ir.Stmt.Store
          ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
            Expr.(add (var "i") (var "j")) );
      ]
  in
  let count_tiles nest n =
    (* tiles = iterations of the two outer (block) loops; non-empty =
       tiles executing at least one innermost iteration *)
    let env = Itf_exec.Env.create () in
    Itf_exec.Env.set_scalar env "n" n;
    Itf_exec.Env.declare_array env "a" [ (1, n); (1, n) ];
    let tiles = Hashtbl.create 64 in
    let nonempty = Hashtbl.create 64 in
    let outer2 = ref [||] in
    Itf_exec.Interp.run
      ~on_iteration:(fun it ->
        outer2 := [| it.(0); it.(1) |];
        Hashtbl.replace nonempty !outer2 ())
      env nest;
    ignore tiles;
    (* total tiles: enumerate the block loops alone *)
    let block_only =
      Nest.make
        (List.filteri (fun k _ -> k < 2) nest.Nest.loops)
        [ Itf_ir.Stmt.Set ("t", Expr.zero) ]
    in
    let env2 = Itf_exec.Env.create () in
    Itf_exec.Env.set_scalar env2 "n" n;
    let total = List.length (Itf_exec.Interp.iteration_order env2 block_only) in
    (total, Hashtbl.length nonempty)
  in
  Format.printf "%6s %22s %22s@." "n" "Table 4 (total/nonempty)"
    "bounding box (total/nonempty)";
  List.iter
    (fun n ->
      let pt, pn = count_tiles paper n in
      let nt, nn = count_tiles naive n in
      Format.printf "%6d %13d / %-8d %13d / %-8d@." n pt pn nt nn)
    [ 16; 32; 64 ];
  Format.printf
    "(the Table 4 scheme visits no empty tiles; the bounding box wastes ~half)@."

(* ------------------------------------------------------------------ *)
(* EXP-ABL2: precision of Table 2's exact band entries                 *)
(* ------------------------------------------------------------------ *)

let ablation_mapping_precision () =
  section
    "EXP-ABL2 | ablation: exact vs conservative Block/Coalesce/Interleave mapping";
  (* On rectangular nests the exact Table 2 entries (rectangular_bands =
     true) accept sequences the conservative widening must reject. Count
     verdict flips over a family of block+parallelize/coalesce sequences
     against matmul-like dependence sets. *)
  (* The exact entries only matter when the components before the band are
     summary values (a definitely-zero prefix stays exact either way, and a
     definitely-positive prefix decides the lex test by itself). *)
  let vector_sets =
    [
      [ Depvec.of_string "(0+,1,0)" ];
      [ Depvec.of_string "(0+,0,1)" ];
      [ Depvec.of_string "(0+,1,1)" ];
      [ Depvec.of_string "(0,0,+)" ];
      [ Depvec.of_string "(1,0,-1)" ];
      [ Depvec.of_string "(0+,1,0)"; Depvec.of_string "(0,0,+)" ];
    ]
  in
  let sequences =
    [
      [ T.block ~n:3 ~i:1 ~j:2 ~bsize:(Array.make 2 (Expr.var "b")) ];
      [ T.block ~n:3 ~i:2 ~j:2 ~bsize:[| Expr.var "b" |] ];
      [ T.coalesce ~n:3 ~i:1 ~j:2 ];
      [ T.interleave ~n:3 ~i:2 ~j:2 ~isize:[| Expr.var "f" |] ];
    ]
  in
  let verdict ~rect vectors seq =
    let vs =
      List.fold_left
        (fun vs t -> Depmap.map_set ~rectangular_bands:rect t vs)
        vectors seq
    in
    Depvec.set_may_lex_negative vs = None
  in
  let total = ref 0 and flipped = ref 0 in
  List.iter
    (fun vectors ->
      List.iter
        (fun seq ->
          incr total;
          let exact = verdict ~rect:true vectors seq in
          let cons = verdict ~rect:false vectors seq in
          if exact && not cons then incr flipped;
          assert ((not cons) || exact)
          (* conservative legal implies exact legal *))
        sequences)
    vector_sets;
  Format.printf
    "%d of %d (vector-set, sequence) combinations are accepted only thanks to@.\
     the exact rectangular-band entries of Table 2 (conservative widening@.\
     would reject them).@."
    !flipped !total

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "MICRO | bechamel benchmarks of framework operations";
  let open Bechamel in
  let nest = matmul () in
  let vectors = Itf_dep.Analysis.vectors nest in
  let seq7 = fig7_sequence () in
  let stencil_nest = stencil () in
  let m = fig1_matrix () in
  let tests =
    [
      Test.make ~name:"analysis: matmul dependence vectors"
        (Staged.stage (fun () -> Itf_dep.Analysis.vectors nest));
      Test.make ~name:"legality+codegen: fig7 5-template pipeline"
        (Staged.stage (fun () -> L.check ~vectors nest seq7));
      Test.make ~name:"depmap: fig7 vector mapping only"
        (Staged.stage (fun () ->
             List.fold_left
               (fun vs t -> Depmap.map_set ~rectangular_bands:true t vs)
               vectors seq7));
      Test.make ~name:"codegen: unimodular via Fourier-Motzkin (fig1)"
        (Staged.stage (fun () ->
             Itf_core.Codegen.apply stencil_nest (T.unimodular m)));
      Test.make ~name:"bmat: build LB/UB/STEP for the sparse nest"
        (Staged.stage (fun () -> Itf_bounds.Bmat.of_nest (sparse ())));
      Test.make ~name:"sequence: reduce 4 unimodular stages"
        (Staged.stage (fun () ->
             Itf_core.Sequence.reduce
               [
                 T.skew ~n:2 ~src:0 ~dst:1 ~factor:1;
                 T.unimodular (Intmat.interchange 2 0 1);
                 T.unimodular (Intmat.skew 2 0 1 (-1));
                 T.unimodular (Intmat.interchange 2 0 1);
               ]));
      Test.make ~name:"parser: parse the matmul source"
        (Staged.stage (fun () ->
             Itf_lang.Parser.parse_nest
               "do i = 1, n\n\
               \  do j = 1, n\n\
               \    do k = 1, n\n\
               \      A(i, j) = A(i, j) + B(i, k) * C(k, j)\n\
               \    enddo\n\
               \  enddo\n\
                enddo\n"));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg
          [ Toolkit.Instance.monotonic_clock ]
          (Test.make_grouped ~name:"" ~fmt:"%s%s" [ test ])
      in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Format.printf "%-52s %12.0f ns/run@." name est
          | _ -> Format.printf "%-52s (no estimate)@." name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* EXP-SEARCH: untiered vs two-tier transformation search engine      *)
(* ------------------------------------------------------------------ *)

(* Runs [Engine.search] untiered and two-tier (tier-0 cost-model screen +
   exact top-K), sequential and parallel, on the same beam search. Every
   run is instrumented with the same counter (one bump per template stage
   application inside legality checking), so "template applications" is a
   schedule-independent work measure; "exact evals" counts simulator runs,
   the hot cost the two-tier screen exists to avoid. Results go to stdout
   and to BENCH_search.json in the working directory.

   This bench doubles as the regression gate CI runs: it [failwith]s if
   any run disagrees on the winner, if the tiered parallel run is more
   than 1.2x slower than the tiered sequential run, if the tier-0 screen
   saves less than 3x exact evaluations on matmul/locality, or — given
   [--baseline FILE] holding a previously committed BENCH_search.json — if
   any case's deterministic counters (exact and tier-0 evaluations, the
   shared-table probes of one warm tiered search, and the node, cache,
   legality and evaluation counters of the three stats blocks) differ
   from that baseline at all, if its new_seq_minor_words (the minor
   words of one warm tiered search, a count that repeats exactly run to
   run) exceeds the baseline's by more than 1%, or if its new_seq_time_s
   regressed more than 10% against it both in absolute time and
   normalized by the same file's compute_untiered_time_s (the
   normalization absorbs hardware differences; the AND keeps one noisy
   denominator from faking a regression). Two cold cases follow, one
   per objective: the first search of a renamed nest, whose integer
   statistics (shared work and registry reads included) must equal the
   baseline's and whose minor words must stay within 1% of it. *)
let search_bench ?baseline () =
  section "EXP-SEARCH | search engine: two-tier + incremental + multicore";
  let module Search = Itf_opt.Search in
  let module Engine = Itf_opt.Engine in
  let module Hashcons = Itf_mat.Hashcons in
  (* Each case's objective comes paired with its tier-0 mirror from
     [Search.of_name], built through [mk_obj ~metrics ~memo] so the
     compute-regime runs below can instantiate the same objective
     without the process-wide score memo. *)
  let cases =
    List.map
      (fun (name, nest, objective, n) ->
        let mk ?metrics ~memo () =
          Result.get_ok
            (Search.of_name ?metrics ~memo objective ~procs:4
               ~params:[ ("n", n) ])
        in
        ( name,
          nest,
          (fun ~metrics ~memo -> fst (mk ?metrics ~memo ())),
          snd (mk ~memo:true ()),
          3 ))
      [
        ("stencil/parallel", stencil (), "parallel", 10);
        ("matmul/locality", matmul (), "locality", 16);
        ("lu/parallel", lu (), "parallel", 10);
        ("lu/locality", lu (), "locality", 16);
      ]
  in
  (* Best-of-five for the runs whose timing ratio is enforced: these
     searches finish in milliseconds, so a single GC pause or scheduler
     hiccup would otherwise dominate the ratio and fail the gate. The
     reported result (and so the stats blob in the JSON) comes from the
     best-timed run — the time and the stats describe the same run, which
     in practice is a warm one (runs 2-5 hit the process-wide memos). The
     allocation deltas (minor-heap words allocated, from
     [Gc.minor_words], and words promoted, from [Gc.quick_stat] — the
     direct measure of what hash-consing removes from the hot path; the
     [quick_stat] minor count only advances by whole minor heaps) come
     from the fifth run: by then the
     process-wide memo tables answer every repeated candidate, so they
     report the steady-state allocation of a search, not the one-time
     intern cost. *)
  let time_min_gc f =
    let best = ref None and alloc = ref (0., 0.) in
    for run = 1 to 5 do
      let m0 = Gc.minor_words () and s0 = Gc.quick_stat () in
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let t = Unix.gettimeofday () -. t0 in
      let m1 = Gc.minor_words () and s1 = Gc.quick_stat () in
      if run = 5 then
        alloc := (m1 -. m0, s1.Gc.promoted_words -. s0.Gc.promoted_words);
      match !best with
      | Some (_, best_t) when best_t <= t -> ()
      | _ -> best := Some (r, t)
    done;
    let r, t = Option.get !best in
    (r, t, fst !alloc, snd !alloc)
  in
  let time_min f =
    let r, t, _, _ = time_min_gc f in
    (r, t)
  in
  (* Parse the committed baseline up front so a malformed file fails fast,
     before minutes of benching. *)
  let baseline_cases =
    match baseline with
    | None -> None
    | Some path ->
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Json.of_string s with
      | Error e -> failwith ("--baseline " ^ path ^ ": " ^ e)
      | Ok j ->
        (match Json.member "schema" j with
        | Some (Json.Int 9) -> ()
        | _ ->
          failwith
            ("--baseline " ^ path ^ ": expected schema 9 BENCH_search.json"));
        let list k = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list) in
        Some (list "cases" @ list "cold"))
  in
  let baseline_case name =
    Option.bind baseline_cases
      (List.find_opt (fun c -> Json.member "name" c = Some (Json.String name)))
  in
  let baseline_times name =
    Option.map
      (fun c ->
        let f k =
          match Option.bind (Json.member k c) Json.to_float with
          | Some x -> x
          | None -> failwith ("baseline case " ^ name ^ " missing " ^ k)
        in
        (f "compute_untiered_time_s", f "new_seq_time_s"))
      (baseline_case name)
  in
  let baseline_minor_words name =
    Option.bind (baseline_case name) (fun c ->
        Option.bind (Json.member "new_seq_minor_words" c) Json.to_float)
  in
  (* The deterministic fields of a case: the same on every host and at
     every domain count, so any difference from the baseline is a change
     in what the search does. Host-dependent fields (domains,
     work_threshold, times, GC words) are left to the timing gate. *)
  let counter_paths =
    List.map
      (fun k -> [ k ])
      [
        "exact_evals"; "exact_evals_untiered"; "tier0_evals"; "tier0_pruned";
        "warm_probes"; "compute_memsim_runs"; "compute_memsim_certified";
      ]
    @ List.concat_map
        (fun stats ->
          List.filter_map
            (function
              | { Itf_opt.Stats.key; source = Count _; _ } -> Some [ stats; key ]
              | _ -> None)
            Itf_opt.Stats.ledger)
        [ "stats_untiered"; "stats_seq"; "stats_par" ]
  in
  let check_counters name fresh =
    let get j path =
      List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
      |> Option.fold ~none:"missing" ~some:Json.to_string
    in
    Option.iter
      (fun base ->
        List.iter
          (fun path ->
            if get base path <> get fresh path then
              failwith
                (Printf.sprintf "%s: %s is %s, baseline %s" name
                   (String.concat "." path) (get fresh path) (get base path)))
          counter_paths)
      (baseline_case name)
  in
  let par_domains = Itf_opt.Engine.default_domains () in
  Format.printf "parallel runs use %d domains@." par_domains;
  (* Spin the shared pool up before anything is timed: the one-time domain
     spawn cost must not be charged to the first parallel case. *)
  if par_domains > 1 then
    ignore (Itf_opt.Pool.shared ~workers:(par_domains - 1) ());
  let jsons =
    List.map
      (fun (name, nest, mk_obj, spec, steps) ->
        let objective = mk_obj ~metrics:None ~memo:true in
        (* Same best-of-N discipline as the tiered runs: the
           tiered-vs-untiered gate below compares warm best times on both
           sides. *)
        let unt_, unt_t =
          time_min (fun () -> Engine.search ~steps ~domains:1 nest objective)
        in
        let seq_, seq_t, seq_minor, seq_promoted =
          time_min_gc (fun () ->
              Engine.search ~steps ~domains:1 ~tier0:spec nest objective)
        in
        let par_, par_t, _, _ =
          time_min_gc (fun () ->
              Engine.search ~steps ~domains:par_domains ~tier0:spec nest
                objective)
        in
        (* True-compute regime: the same two searches with the process-wide
           simulation memo disabled, so every run pays for its exact
           evaluations. The memoized times above are the warm steady state
           (what serve sees on repeat queries, where warm probes make the
           tier-0 screen pure overhead); these are what a novel query
           costs — the regime the screen exists for, and the one the
           tiered-vs-untiered wall-clock gate compares like for like. *)
        let cunt_, cunt_t =
          time_min (fun () ->
              Engine.search ~steps ~domains:1 nest
                (mk_obj ~metrics:None ~memo:false))
        in
        let cseq_, cseq_t =
          time_min (fun () ->
              Engine.search ~steps ~domains:1 ~tier0:spec nest
                (mk_obj ~metrics:None ~memo:false))
        in
        (* The cache simulations one memo-off tiered search runs, and the
           locality evaluations the root's footprint certificate answers
           instead: on a locality case together exactly its exact
           evaluations, and never none. Matmul at n = 16 maps 3 lines to
           a set of the 2-way cache, so its root is never certified and
           every evaluation simulates. LU at n = 16 evicts nothing
           (test_compile's sweep pins which roots certify): its root is
           its one simulation and every other evaluation is certified,
           so a certificate that stops applying fails here even without
           a baseline, and the exact gate pins both counts. *)
        let compute_memsim =
          let m = Itf_obs.Metrics.create () in
          let count name =
            Itf_obs.Metrics.counter_value (Itf_obs.Metrics.counter m name)
          in
          let r =
            Engine.search ~steps ~domains:1 ~tier0:spec nest
              (mk_obj ~metrics:(Some m) ~memo:false)
          in
          let runs = count Itf_opt.Stats.memsim_runs
          and certified = count Itf_opt.Stats.memsim_certified in
          (match r with
          | Some o when String.ends_with ~suffix:"/locality" name ->
            let evals = o.Engine.stats.Itf_opt.Stats.objective_evaluations in
            if runs + certified = 0 || runs + certified <> evals then
              failwith
                (Printf.sprintf
                   "%s: %d memsim runs + %d certified, %d exact evaluations"
                   name runs certified evals);
            if name = "lu/locality" && (runs <> 1 || certified = 0) then
              failwith
                (Printf.sprintf
                   "%s: %d memsim runs, %d certified: the root's footprint \
                    certificate no longer answers its candidates"
                   name runs certified)
          | _ -> ());
          (runs, certified)
        in
        (* Tracer overhead in the regime serve runs: a fresh {e active}
           tracer per request (capture always happens when the sink is
           configured — head sampling only decides retention, so the
           sampling draw is charged here too). Compared against the
           null-tracer warm tiered run above; the gate below keeps the
           capture path honest. The last run's span forest feeds the
           BENCH_profile.txt artifact. *)
        let last_roots = ref [] in
        let trc_, trc_t =
          time_min (fun () ->
              let tracer = Itf_obs.Tracer.create () in
              ignore
                (Itf_obs.Tracer.head_keep ~sample_rate:0.5 ~fingerprint:name);
              let r =
                Engine.search ~steps ~domains:1 ~tier0:spec ~tracer nest
                  objective
              in
              last_roots := Itf_obs.Tracer.roots tracer;
              r)
        in
        let profile_rows = Itf_obs.Profile.of_spans !last_roots in
        (* Shared-table probes of one more warm tiered search: every
           table the search touches answers from memory by now, so the
           count is what a warm search costs in lookups, the same on
           every host. *)
        let warm_probes =
          let probes () =
            List.fold_left
              (fun acc s -> acc + s.Hashcons.hits + s.Hashcons.misses)
              0 (Hashcons.stats ())
          in
          let before = probes () in
          ignore (Engine.search ~steps ~domains:1 ~tier0:spec nest objective);
          probes () - before
        in
        match (unt_, seq_, par_, cunt_, cseq_, trc_) with
        | Some unt_, Some seq_, Some par_, Some cunt_, Some cseq_, Some trc_ ->
          let agree (a : Engine.outcome) (b : Engine.outcome) =
            Itf_core.Sequence.compare a.Engine.canonical b.Engine.canonical = 0
            && a.Engine.score = b.Engine.score
          in
          let same_winner = agree unt_ seq_ && agree seq_ par_ in
          if not same_winner then
            failwith (name ^ ": engines disagree on the winner");
          if not (agree unt_ cunt_ && agree seq_ cseq_) then
            failwith
              (name
             ^ ": memoized and unmemoized searches disagree on the winner");
          if not (agree seq_ trc_) then
            failwith
              (name ^ ": traced and untraced searches disagree on the winner");
          let trace_overhead = trc_t /. seq_t in
          (* The tentpole gate: an active sampled tracer must cost <= 1.1x
             the null-sink wall time. Enforced on matmul (the longest
             case); 5ms absolute floor for the same scheduler-jitter
             reason as the gates above. *)
          if
            name = "matmul/locality"
            && trace_overhead > 1.1
            && trc_t -. seq_t > 0.005
          then
            failwith
              (Printf.sprintf
                 "%s: active tracer costs %.2fx the null-sink search (limit \
                  1.1x beyond the 5ms floor)"
                 name trace_overhead);
          let stats = seq_.Engine.stats in
          let apps = stats.Itf_opt.Stats.template_applications in
          let exact_untiered =
            unt_.Engine.stats.Itf_opt.Stats.objective_evaluations
          in
          let exact_tiered = stats.Itf_opt.Stats.objective_evaluations in
          let exact_reduction =
            float exact_untiered /. float (max 1 exact_tiered)
          in
          let par_vs_seq = par_t /. seq_t in
          (* The absolute term keeps the ratio gate meaningful now that
             memoized runs finish in a few milliseconds: a 1ms scheduler
             hiccup alone can exceed 1.2x. *)
          if par_vs_seq > 1.2 && par_t -. seq_t > 0.005 then
            failwith
              (Printf.sprintf
                 "%s: tiered parallel run is %.2fx the sequential time \
                  (limit 1.2x)"
                 name par_vs_seq);
          let tiered_vs_untiered = seq_t /. unt_t in
          let compute_vs_untiered = cseq_t /. cunt_t in
          (* The tiered screen exists to be cheaper than brute force; PR 8's
             headline bug was tiered sequential search running 2.4x slower
             than untiered on matmul while the cross-step cache sat cold.
             The enforced comparison is the unmemoized (compute) regime,
             where both engines pay their exact evaluations; 3ms absolute
             floor for the same reason as the par/seq gate. *)
          if compute_vs_untiered > 1.2 && cseq_t -. cunt_t > 0.003 then
            failwith
              (Printf.sprintf
                 "%s: tiered sequential compute run is %.2fx the untiered \
                  time (limit 1.2x)"
                 name compute_vs_untiered);
          (* In the warm regime the screen's probes are overhead by
             construction, but a cold cross-step cache (the PR 8 collapse
             re-keyed every entry) costs far more than that: keep a looser
             warm-ratio guard too. *)
          if tiered_vs_untiered > 1.2 && seq_t -. unt_t > 0.003 then
            failwith
              (Printf.sprintf
                 "%s: tiered sequential warm run is %.2fx the untiered time \
                  (limit 1.2x beyond the 3ms floor)"
                 name tiered_vs_untiered);
          (* Deterministic pin for the collapse itself: tiered search must
             reuse at least as many cross-step cache entries as untiered
             (it evaluates a superset of nothing — the same frontier plus
             screen survivors — so fewer hits means the screen re-keyed
             the cache). *)
          let hits (s : Itf_opt.Stats.t) =
            s.Itf_opt.Stats.legality_cache_hits
            + s.Itf_opt.Stats.score_cache_hits
          in
          if
            name = "matmul/locality"
            && hits stats < hits unt_.Engine.stats
          then
            failwith
              (Printf.sprintf
                 "%s: tiered cross-step cache hits collapsed (%d < untiered \
                  %d)"
                 name (hits stats)
                 (hits unt_.Engine.stats));
          if name = "matmul/locality" && exact_reduction < 3.0 then
            failwith
              (Printf.sprintf
                 "%s: tier-0 screen saves only %.2fx exact evaluations \
                  (%d -> %d, need >= 3x)"
                 name exact_reduction exact_untiered exact_tiered);
          (* Warm allocation gate: a warm search allocates the same words
             on every run, so 1% is room for a compiler's rounding, not
             for noise. *)
          (match baseline_minor_words name with
          | Some base when seq_minor > base *. 1.01 ->
            failwith
              (Printf.sprintf
                 "%s: new_seq_minor_words is %.0f, over 1%% above the \
                  baseline's %.0f"
                 name seq_minor base)
          | _ -> ());
          (match baseline_times name with
          | None -> ()
          | Some (base_unt, base_seq) ->
            let fresh_ratio = seq_t /. cunt_t in
            let base_ratio = base_seq /. base_unt in
            (* 5ms noise floor: memoized searches run in single-digit
               milliseconds, where 10% is below scheduler jitter; the
               regressions this gate exists for (losing the memo or the
               id-keyed cache) cost tens of milliseconds. *)
            if
              fresh_ratio > base_ratio *. 1.1
              && seq_t > base_seq *. 1.1
              && seq_t -. base_seq > 0.005
            then
              failwith
                (Printf.sprintf
                   "%s: new_seq_time_s regressed >10%% vs baseline \
                    (normalized %.3f -> %.3f, absolute %.4fs -> %.4fs)"
                   name base_ratio fresh_ratio base_seq seq_t));
          Format.printf
            "%-18s untiered %.3fs (%d applications; %d exact evals) | tiered \
             seq %.3fs (%d exact evals, %.1fx fewer; %d tier-0 pruned) | \
             tiered par %.3fs (par/seq %.2f) | same winner: %b@."
            name unt_t apps exact_untiered seq_t exact_tiered exact_reduction
            stats.Itf_opt.Stats.tier0_pruned par_t par_vs_seq same_winner;
          Format.printf
            "%-18s warm tiered seq, per search: %d shared-table probes, \
             %.0f minor words (%.0f promoted)@."
            "" warm_probes seq_minor seq_promoted;
          Format.printf
            "%-18s compute (no sim memo): untiered %.3fs vs tiered seq %.3fs \
             (tiered/untiered %.2f; warm %.2f)@."
            "" cunt_t cseq_t compute_vs_untiered tiered_vs_untiered;
          Format.printf
            "%-18s traced %.3fs (tracer overhead %.2fx; %d profile rows)@."
            "" trc_t trace_overhead (List.length profile_rows);
          if name = "matmul/locality" then begin
            let oc = open_out "BENCH_profile.txt" in
            let ppf = Format.formatter_of_out_channel oc in
            Format.fprintf ppf
              "self-time profile of one traced tiered matmul/locality search \
               (steps %d, domains 1)@.%a@."
              steps Itf_obs.Profile.pp
              (Itf_obs.Profile.top 20 profile_rows);
            Format.pp_print_flush ppf ();
            close_out oc
          end;
          Json.Obj
            [
              ("name", Json.String name);
              ("steps", Json.Int steps);
              ("untiered_seq_time_s", Json.Float unt_t);
              ("new_seq_time_s", Json.Float seq_t);
              ("new_par_time_s", Json.Float par_t);
              ("exact_evals_untiered", Json.Int exact_untiered);
              ("exact_evals", Json.Int exact_tiered);
              ( "tier0_evals",
                Json.Int stats.Itf_opt.Stats.tier0_evaluations );
              ("tier0_pruned", Json.Int stats.Itf_opt.Stats.tier0_pruned);
              ("warm_probes", Json.Int warm_probes);
              ("compute_memsim_runs", Json.Int (fst compute_memsim));
              ("compute_memsim_certified", Json.Int (snd compute_memsim));
              ("exact_eval_reduction", Json.Float exact_reduction);
              ("par_vs_seq", Json.Float par_vs_seq);
              ("tiered_vs_untiered", Json.Float tiered_vs_untiered);
              ("compute_untiered_time_s", Json.Float cunt_t);
              ("compute_seq_time_s", Json.Float cseq_t);
              ("compute_vs_untiered", Json.Float compute_vs_untiered);
              ("traced_seq_time_s", Json.Float trc_t);
              ("trace_overhead", Json.Float trace_overhead);
              ("same_winner", Json.Bool same_winner);
              ("new_seq_minor_words", Json.Float seq_minor);
              ("new_seq_promoted_words", Json.Float seq_promoted);
              ("stats_untiered", Itf_opt.Stats.to_json_value unt_.Engine.stats);
              ("stats_seq", Itf_opt.Stats.to_json_value stats);
              ("stats_par", Itf_opt.Stats.to_json_value par_.Engine.stats);
            ]
        | _ -> failwith (name ^ ": a search returned nothing"))
      cases
  in
  List.iter2
    (fun (name, _, _, _, _) json -> check_counters name json)
    cases jsons;
  (* Cold cases: the first search of a nest whose arrays no table has
     seen, one per objective, after every warm case. Its work is the
     cold path's: legality verdicts, families, reference forms inherited,
     mapped or computed, tier-0 estimates and exact simulations,
     statement closures compiled. All of it is exact at one domain, so
     every integer statistic of the search, its shared work and its
     registry reads included, must equal the baseline's, and its minor
     words, a count that repeats run to run, must stay within 1% of it. *)
  let cold =
    List.map
      (fun (name, nest, objective, n) ->
        let m = Itf_obs.Metrics.create () in
        let obj, spec =
          Result.get_ok
            (Search.of_name ~metrics:m objective ~procs:4 ~params:[ ("n", n) ])
        in
        let nest = renamed "_cold" nest in
        let w0 = Gc.minor_words () in
        let r = Engine.search ~steps:3 ~domains:1 ~metrics:m ~tier0:spec nest obj in
        let words = Gc.minor_words () -. w0 in
        let o =
          match r with Some o -> o | None -> failwith (name ^ ": no outcome")
        in
        let stats = Itf_opt.Stats.to_json_value ~metrics:m o.Engine.stats in
        let counters =
          List.filter_map
            (fun (st : Itf_opt.Stats.stat) ->
              match st.source with
              | Count _ | Shared _ | Templates _ | Read _ -> Some st.key
              | Setting _ | Phase _ | Time _ -> None)
            Itf_opt.Stats.ledger
        in
        Option.iter
          (fun base ->
            let get j k =
              Option.bind (Json.member "stats_cold" j) (Json.member k)
              |> Option.fold ~none:"missing" ~some:Json.to_string
            in
            List.iter
              (fun k ->
                if get base k <> get (Json.Obj [ ("stats_cold", stats) ]) k then
                  failwith
                    (Printf.sprintf "%s: %s is %s, baseline %s" name k
                       (get (Json.Obj [ ("stats_cold", stats) ]) k)
                       (get base k)))
              counters;
            match Option.bind (Json.member "cold_minor_words" base) Json.to_float with
            | Some b when words > b *. 1.01 ->
              failwith
                (Printf.sprintf
                   "%s: cold_minor_words is %.0f, over 1%% above the \
                    baseline's %.0f"
                   name words b)
            | _ -> ())
          (baseline_case name);
        Format.printf
          "%-22s cold search (steps 3, 1 domain): %.3fs, %.0f minor words; \
           score %g@."
          name o.Engine.stats.Itf_opt.Stats.total_time_s words o.Engine.score;
        Format.printf "%-22s %a@." "" (Itf_opt.Stats.pp ~metrics:m) o.Engine.stats;
        Json.Obj
          [
            ("name", Json.String name);
            ("steps", Json.Int 3);
            ("cold_minor_words", Json.Float words);
            ("stats_cold", stats);
          ])
      [
        ("matmul/locality/cold", matmul (), "locality", 16);
        ("lu/parallel/cold", lu (), "parallel", 10);
      ]
  in
  (* Intern/memo table health at the end of the whole suite. *)
  let intern_tables =
    List.map
      (fun s ->
        Format.printf "intern %-16s size %6d  hits %8d  misses %6d@."
          s.Hashcons.name s.Hashcons.size s.Hashcons.hits s.Hashcons.misses;
        Json.Obj
          [
            ("name", Json.String s.Hashcons.name);
            ("size", Json.Int s.Hashcons.size);
            ("hits", Json.Int s.Hashcons.hits);
            ("misses", Json.Int s.Hashcons.misses);
            ("evictions", Json.Int s.Hashcons.evictions);
          ])
      (Hashcons.stats ())
  in
  write_bench_json ~schema:9 "BENCH_search.json"
    [
      ("domains_par", Json.Int par_domains);
      ("cases", Json.List jsons);
      ("cold", Json.List cold);
      ("intern_tables", Json.List intern_tables);
    ]

(* ------------------------------------------------------------------ *)
(* EXP-SIM: compiled execution backend vs tree-walking interpreter     *)
(* ------------------------------------------------------------------ *)

(* Measures simulated iterations/sec of full nest executions through both
   backends — plain runs and cache-simulated (Memsim) runs, the latter
   being the objective hot path of the search engine. Each case is first
   checked differentially (identical final array state), and the compiled
   backend must not be slower than the interpreter. Results go to stdout
   and BENCH_sim.json. *)
let sim_bench () =
  section "EXP-SIM | execution backends: compiled closures vs interpreter";
  let module Compile = Itf_exec.Compile in
  let mk_env ~n arrays =
    let env = Itf_exec.Env.create () in
    Itf_exec.Env.set_scalar env "n" n;
    List.iter
      (fun a ->
        Itf_exec.Env.declare_array env a [ (1, n); (1, n) ];
        let d = Itf_exec.Env.array_data env a in
        Array.iteri (fun k _ -> d.(k) <- (k * 17) mod 23) d)
      arrays;
    env
  in
  let cases =
    [
      ("matmul", matmul (), 32, [ "A"; "B"; "C" ]);
      ("stencil", stencil (), 96, [ "a" ]);
      ("lu", lu (), 28, [ "a" ]);
    ]
  in
  (* Wall-clock rate of [f] in calls/sec, doubling reps until the batch
     takes at least 0.2 s. *)
  let rate f =
    let rec go reps =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        f ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt >= 0.2 then float reps /. dt else go (2 * reps)
    in
    go 1
  in
  Format.printf "%-8s %12s %16s %16s %9s %14s %14s %9s %14s@." "case"
    "iters/run" "interp it/s" "compiled it/s" "speedup" "memsim run/s"
    "memsimC run/s" "speedup" "simulate run/s";
  let jsons =
    List.map
      (fun (name, nest, n, arrays) ->
        (* Differential check on fresh identical environments. *)
        let env_i = mk_env ~n arrays and env_c = mk_env ~n arrays in
        Itf_exec.Interp.run env_i nest;
        Compile.run (Compile.compile env_c nest);
        if Itf_exec.Env.snapshot env_i <> Itf_exec.Env.snapshot env_c then
          failwith (name ^ ": backends disagree on final array state");
        (* Innermost iterations of one execution. *)
        let iters = ref 0 in
        let env = mk_env ~n arrays in
        Itf_exec.Interp.run ~on_iteration:(fun _ -> incr iters) env nest;
        let iters = float !iters in
        (* Plain execution throughput (environments are reused across
           repetitions: the simulated machine is deterministic and timing
           does not depend on array contents). *)
        let interp_rps = rate (fun () -> Itf_exec.Interp.run env nest) in
        let compile_s = 1. /. rate (fun () -> ignore (Compile.compile env nest)) in
        let compiled = Compile.compile env nest in
        let compiled_rps = rate (fun () -> Compile.run compiled) in
        let speedup = compiled_rps /. interp_rps in
        (* The objective path: cache simulation attached. [run_compiled]
           re-compiles per call, exactly like one objective evaluation. *)
        let memsim_rps = rate (fun () -> ignore (Memsim.run cache_cfg env nest)) in
        let memsimc_rps =
          rate (fun () -> ignore (Memsim.run_compiled cache_cfg env nest))
        in
        let memsim_speedup = memsimc_rps /. memsim_rps in
        (* The search's entry: an address program for these static-control
           nests. Its stats must equal both values runs'. *)
        let memsim_search_rps =
          rate (fun () -> ignore (Memsim.simulate cache_cfg env nest))
        in
        let stats f = (f cache_cfg (mk_env ~n arrays) nest).Memsim.cache in
        let interp_stats = stats (fun c e n -> Memsim.run c e n) in
        if
          stats (fun c e n -> Memsim.run_compiled c e n) <> interp_stats
          || stats (fun c e n -> Memsim.simulate c e n) <> interp_stats
        then failwith (name ^ ": memsim entries disagree on cache stats");
        (* The observability tax on the objective hot path: same Memsim
           call under an active ambient tracer (fresh per call so the
           span buffer never grows without bound). The default — a null
           tracer — must cost nothing: memsimc_rps above IS the
           null-tracer rate. *)
        let memsimc_traced_rps =
          rate (fun () ->
              let tr = Tracer.create () in
              Tracer.with_ambient tr (fun () ->
                  ignore (Memsim.run_compiled cache_cfg env nest)))
        in
        let trace_overhead = (memsimc_rps /. memsimc_traced_rps) -. 1. in
        if compiled_rps < interp_rps then
          failwith (name ^ ": compiled backend slower than the interpreter");
        Format.printf
          "%-8s %12.0f %16.0f %16.0f %8.1fx %14.1f %14.1f %8.1fx %14.1f@." name
          iters (interp_rps *. iters) (compiled_rps *. iters) speedup memsim_rps
          memsimc_rps memsim_speedup memsim_search_rps;
        Format.printf
          "%-8s compile: %.0f us/compile (amortized over %.0f iterations/run); \
           active tracer: %.1f runs/s (%.1f%% overhead)@."
          "" (compile_s *. 1e6) iters memsimc_traced_rps
          (100. *. trace_overhead);
        Json.Obj
          [
            ("name", Json.String name);
            ("n", Json.Int n);
            ("inner_iterations", Json.Float iters);
            ("interp_runs_per_s", Json.Float interp_rps);
            ("compiled_runs_per_s", Json.Float compiled_rps);
            ("interp_iters_per_s", Json.Float (interp_rps *. iters));
            ("compiled_iters_per_s", Json.Float (compiled_rps *. iters));
            ("speedup", Json.Float speedup);
            ("compile_time_us", Json.Float (compile_s *. 1e6));
            ("memsim_runs_per_s", Json.Float memsim_rps);
            ("memsim_compiled_runs_per_s", Json.Float memsimc_rps);
            ("memsim_compiled_traced_runs_per_s", Json.Float memsimc_traced_rps);
            ("trace_overhead", Json.Float trace_overhead);
            ("memsim_speedup", Json.Float memsim_speedup);
            ("memsim_search_runs_per_s", Json.Float memsim_search_rps);
            ("backends_agree", Json.Bool true);
          ])
      cases
  in
  write_bench_json "BENCH_sim.json" [ ("cases", Json.List jsons) ]

(* ------------------------------------------------------------------ *)
(* Serve scheduler throughput (--serve)                                 *)
(* ------------------------------------------------------------------ *)

(* Throughput of the serve scheduler on a warm matmul search, with the
   response cache OFF so every request actually runs the engine against
   the shared (sharded) intern and memo tables: [clients = workers]
   threads each push [requests_per_client] blocking requests through
   [Serve.handle_line] at workers = 1 / 2 / 4, and the harness reports
   req/s and the server's own p99 request latency, plus a staged overload
   demonstration (1 worker, 1-slot queue) counting shed responses.
   Results go to BENCH_serve.json (schema 1).

   Gate: on a host with >= 4 cores, 4 workers must deliver >= 2x the
   1-worker req/s. On smaller hosts (CI containers are often 1-2 cores)
   the numbers are still emitted — with the core count, so a reader can
   judge them — but the ratio is not enforced: domains time-slicing one
   core cannot speed anything up. *)

let serve_requests_per_client = 24

let serve_bench () =
  section "serve: scheduler throughput (warm matmul, response cache off)";
  let module Serve = Itf_serve.Serve in
  let matmul_src =
    "do i = 1, n\n\
    \  do j = 1, n\n\
    \    do k = 1, n\n\
    \      A(i, j) = A(i, j) + B(i, k) * C(k, j)\n\
    \    enddo\n\
    \  enddo\n\
     enddo\n"
  in
  let request ?(steps = 2) ?(n = 12) id =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int id);
           ("nest", Json.String matmul_src);
           ("params", Json.Obj [ ("n", Json.Int n) ]);
           ("steps", Json.Int steps);
         ])
  in
  let expect_status want line resp =
    match Json.member "status" resp with
    | Some (Json.String s) when s = want -> ()
    | _ ->
      Format.printf "FAIL: expected status %s for %s, got %s@." want line
        (Json.to_string resp);
      exit 1
  in
  (* Warm the process-wide intern tables and objective memos once, so
     every timed configuration measures the same steady state. *)
  let warm = Serve.create ~domains:1 ~max_cache:0 () in
  let line = request 0 in
  expect_status "ok" line (fst (Serve.handle_line warm line));
  let m = serve_requests_per_client in
  let run_config workers =
    let server =
      Serve.create ~domains:1 ~max_cache:0 ~workers ~queue_depth:1024 ()
    in
    let t0 = Unix.gettimeofday () in
    let client c () =
      for i = 0 to m - 1 do
        let line = request ((c * m) + i + 1) in
        expect_status "ok" line (fst (Serve.handle_line server line))
      done
    in
    let threads = List.init workers (fun c -> Thread.create (client c) ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let total = workers * m in
    let rps = float_of_int total /. wall in
    let p99 =
      Option.value ~default:0.
        (Itf_obs.Metrics.quantile
           (Itf_obs.Metrics.histogram (Serve.metrics server)
              ~buckets:Itf_obs.Metrics.duration_buckets "serve.request_us")
           0.99)
    in
    Format.printf
      "workers %d: %d requests in %.3fs = %8.1f req/s   p99 %8.0f us@."
      workers total wall rps p99;
    (workers, total, wall, rps, p99)
  in
  let configs = List.map run_config [ 1; 2; 4 ] in
  (* Overload: one worker pinned by a heavy search, a 1-slot queue filled
     behind it — every further search must be shed as "overloaded". *)
  let shed_server =
    Serve.create ~domains:1 ~max_cache:0 ~workers:1 ~queue_depth:1 ()
  in
  let busy () =
    Itf_obs.Metrics.gauge_value
      (Itf_obs.Metrics.gauge (Serve.metrics shed_server) "serve.workers.busy")
  in
  let depth () =
    Itf_obs.Metrics.gauge_value
      (Itf_obs.Metrics.gauge (Serve.metrics shed_server) "serve.queue.depth")
  in
  let spin pred = while not (pred ()) do Thread.yield () done in
  let blocker =
    Thread.create
      (fun () ->
        expect_status "ok" "blocker"
          (fst (Serve.handle_line shed_server (request ~steps:3 ~n:16 9000))))
      ()
  in
  spin (fun () -> busy () = 1.);
  let queued =
    Thread.create
      (fun () ->
        expect_status "ok" "queued"
          (fst (Serve.handle_line shed_server (request 9001))))
      ()
  in
  spin (fun () -> depth () = 1.);
  let attempted = 4 in
  for i = 1 to attempted do
    expect_status "overloaded" "shed probe"
      (fst (Serve.handle_line shed_server (request (9001 + i))))
  done;
  Thread.join blocker;
  Thread.join queued;
  let shed_counter =
    Itf_obs.Metrics.counter_value
      (Itf_obs.Metrics.counter (Serve.metrics shed_server) "serve.queue.shed")
  in
  Format.printf "overload: %d/%d probes shed while pinned (counter %d)@."
    attempted attempted shed_counter;
  let cores = Domain.recommended_domain_count () in
  let rps_of w =
    let _, _, _, rps, _ = List.find (fun (w', _, _, _, _) -> w' = w) configs in
    rps
  in
  write_bench_json ~schema:1 "BENCH_serve.json"
    [
      ("cores", Json.Int cores);
      ("requests_per_client", Json.Int m);
      ( "cases",
        Json.List
          (List.map
             (fun (workers, total, wall, rps, p99) ->
               Json.Obj
                 [
                   ("workers", Json.Int workers);
                   ("clients", Json.Int workers);
                   ("requests", Json.Int total);
                   ("wall_s", Json.Float wall);
                   ("req_per_s", Json.Float rps);
                   ("p99_us", Json.Float p99);
                 ])
             configs) );
      ( "shed",
        Json.Obj
          [
            ("attempted", Json.Int attempted);
            ("overloaded", Json.Int attempted);
            ("shed_counter", Json.Int shed_counter);
          ] );
    ];
  if shed_counter < attempted then begin
    Format.printf "FAIL: shed counter %d < %d shed responses@." shed_counter
      attempted;
    exit 1
  end;
  if cores >= 4 then begin
    let r1 = rps_of 1 and r4 = rps_of 4 in
    if r4 < 2.0 *. r1 then begin
      Format.printf
        "FAIL: 4-worker throughput %.1f req/s < 2x the 1-worker %.1f req/s \
         on a %d-core host@."
        r4 r1 cores;
      exit 1
    end;
    Format.printf "gate: 4 workers = %.2fx of 1 worker (>= 2x) OK@."
      (r4 /. r1)
  end
  else
    Format.printf
      "gate: skipped (%d core%s — scaling is not measurable here)@." cores
      (if cores = 1 then "" else "s")

let () =
  if Array.exists (( = ) "--serve") Sys.argv then begin
    serve_bench ();
    exit 0
  end;
  if Array.exists (( = ) "--search") Sys.argv then begin
    let baseline =
      let rec find = function
        | "--baseline" :: path :: _ -> Some path
        | _ :: rest -> find rest
        | [] -> None
      in
      find (Array.to_list Sys.argv)
    in
    search_bench ?baseline ();
    exit 0
  end;
  if Array.exists (( = ) "--sim") Sys.argv then begin
    sim_bench ();
    exit 0
  end;
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  table1 ();
  fig1 ();
  fig2 ();
  table2 ();
  table34 ();
  fig4 ();
  fig5 ();
  fig7 ();
  locality ();
  parallel ();
  composition ();
  lu_demo ();
  ablation_blocking ();
  ablation_mapping_precision ();
  if not quick then bechamel_suite ();
  Format.printf "@.done.@."
