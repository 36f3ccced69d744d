(* Tests for the bounds substrate (lib/bounds): the type lattice, affine
   splitting, LB/UB/STEP matrices (paper Figure 5), and Fourier-Motzkin. *)

open Itf_ir
module Btype = Itf_bounds.Btype
module Affine = Itf_bounds.Affine
module Classify = Itf_bounds.Classify
module Bmat = Itf_bounds.Bmat
module Fourier = Itf_bounds.Fourier
module Access = Itf_bounds.Access

let btype = Alcotest.testable Btype.pp ( = )
let check_btype = Alcotest.check btype
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Btype lattice                                                       *)
(* ------------------------------------------------------------------ *)

let test_lattice () =
  let open Btype in
  check_bool "const <= invar" true (leq Const Invar);
  check_bool "invar <= linear" true (leq Invar Linear);
  check_bool "linear <= nonlinear" true (leq Linear Nonlinear);
  check_bool "nonlinear </= linear" false (leq Nonlinear Linear);
  check_btype "join" Linear (join Invar Linear);
  check_btype "join comm" Linear (join Linear Invar);
  check_btype "join idem" Const (join Const Const)

(* ------------------------------------------------------------------ *)
(* Affine splitting                                                    *)
(* ------------------------------------------------------------------ *)

let test_split_basic () =
  (* 2*i - 3*j + n + 4 over {i, j} *)
  let e =
    Expr.(
      add
        (add (mul (int 2) (var "i")) (neg (mul (int 3) (var "j"))))
        (add (var "n") (int 4)))
  in
  let s = Affine.split ~vars:[ "i"; "j" ] e in
  check_int "coeff i" 2 (Affine.coeff s "i");
  check_int "coeff j" (-3) (Affine.coeff s "j");
  check_bool "affine" true (Affine.is_affine s);
  (* base is n + 4 *)
  check_bool "base correct" true
    (Expr.equal (Expr.subst [] s.Affine.base) Expr.(add (var "n") (int 4)))

let test_split_nonlinear () =
  (* i*j is nonlinear in both; i + i*j is linear part 1*i plus residue *)
  let e = Expr.(add (var "i") (mul (var "i") (var "j"))) in
  let s = Affine.split ~vars:[ "i"; "j" ] e in
  check_int "coeff i (linear part)" 1 (Affine.coeff s "i");
  check_bool "nonlinear flags" true
    (s.Affine.nonlinear_in = [ "i"; "j" ]);
  (* div makes things nonlinear *)
  let s = Affine.split ~vars:[ "i" ] Expr.(div (var "i") (int 2)) in
  check_bool "div nonlinear" false (Affine.is_affine s);
  (* calls make mentioned vars nonlinear, e.g. sqrt(i)/2 from Figure 5 *)
  let s = Affine.split ~vars:[ "i" ] Expr.(div (Call ("sqrt", [ var "i" ])) (int 2)) in
  check_bool "call nonlinear in i" true (List.mem "i" s.Affine.nonlinear_in)

let test_split_symbol_product () =
  (* n*i: coefficient is not a compile-time constant -> nonlinear in i *)
  let s = Affine.split ~vars:[ "i" ] Expr.(mul (var "n") (var "i")) in
  check_bool "n*i nonlinear in i" true (List.mem "i" s.Affine.nonlinear_in);
  (* but n*m with neither designated stays an invariant base *)
  let s = Affine.split ~vars:[ "i" ] Expr.(mul (var "n") (var "m")) in
  check_bool "n*m invariant" true (s.Affine.coeffs = [] && s.Affine.nonlinear_in = [])

(* Recombine a split: coefficient terms plus base. *)
let affine_expr (a : Affine.t) =
  List.fold_left
    (fun acc (v, c) -> Expr.add acc (Expr.mul (Expr.int c) (Expr.var v)))
    a.Affine.base a.Affine.coeffs

let test_split_roundtrip () =
  let e = Expr.(add (mul (int 2) (var "i")) (sub (var "n") (var "j"))) in
  let s = Affine.split ~vars:[ "i"; "j" ] e in
  let env = [ ("i", Expr.int 5); ("j", Expr.int 7); ("n", Expr.int 11) ] in
  Alcotest.check
    (Alcotest.testable Expr.pp Expr.equal)
    "recombination evaluates equally"
    (Expr.subst env e)
    (Expr.subst env
       (affine_expr s))

(* ------------------------------------------------------------------ *)
(* Classification (paper Section 4.1 examples)                         *)
(* ------------------------------------------------------------------ *)

(* [type(e, x)] as {!Bmat.btype} reads it: [e] bounds loop [k] inside
   loops [i] and [j] (its lower bound unless [role = U]). *)
let type_in ?(role = Bmat.L) ?(step = 1) e x =
  let k =
    match role with
    | Bmat.L -> Nest.loop ~step:(Expr.int step) "k" e (Expr.int 10)
    | _ -> Nest.loop ~step:(Expr.int step) "k" Expr.one e
  in
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.int 10); Nest.loop "j" Expr.one (Expr.int 10); k ]
      [ Stmt.Set ("x", Expr.var "k") ]
  in
  Bmat.btype (Bmat.of_nest nest) role ~loop:2 ~wrt:(if x = "i" then 0 else 1)

let test_classify () =
  check_btype "const" Btype.Const (type_in (Expr.int 100) "i");
  check_btype "invar" Btype.Invar (type_in (Expr.var "n") "i");
  check_btype "linear" Btype.Linear
    (type_in Expr.(add (var "i") (int 512)) "i");
  check_btype "nonlinear (call)" Btype.Nonlinear
    (type_in Expr.(div (Call ("sqrt", [ var "i" ])) (int 2)) "i");
  (* Figure 4(c): colstr(j) is nonlinear in j but invariant in i *)
  let e = Expr.Call ("colstr", [ Expr.var "j" ]) in
  check_btype "colstr(j) nonlinear in j" Btype.Nonlinear (type_in e "j");
  check_btype "colstr(j) invar in i" Btype.Invar (type_in e "i")

let test_classify_minmax_special_case () =
  (* A max lower bound of linear terms counts as linear (positive step). *)
  let lb = Expr.(max_ (var "n") (int 3)) in
  check_btype "max lower bound linear-in-n... invar in i" Btype.Invar
    (type_in lb "i");
  let lb2 = Expr.(max_ (var "i") (int 3)) in
  check_btype "max lower bound linear in i" Btype.Linear (type_in lb2 "i");
  (* but a max in an upper bound (positive step) is not decomposed *)
  check_btype "max upper bound stays nonlinear" Btype.Nonlinear
    (type_in ~role:Bmat.U lb2 "i");
  (* negative step flips the roles *)
  check_btype "max upper bound with negative step is decomposed" Btype.Linear
    (type_in ~role:Bmat.U ~step:(-1) lb2 "i")

(* ------------------------------------------------------------------ *)
(* Figure 5: LB/UB/STEP matrices                                       *)
(* ------------------------------------------------------------------ *)

(* do i = max(n,3), 100, 2
     do j = 1, min(2*i+512, ...), 1   -- figure's entries: u2 linear in i
       do k = sqrt(i)/2, 2*j, i *)
let figure5_nest () =
  Nest.make
    [
      Nest.loop ~step:(Expr.int 2) "i" Expr.(max_ (var "n") (int 3)) (Expr.int 100);
      Nest.loop "j" Expr.one Expr.(min_ (int 2) (add (var "i") (int 512)));
      Nest.loop ~step:(Expr.var "i") "k"
        Expr.(div (Call ("sqrt", [ var "i" ])) (int 2))
        Expr.(mul (int 2) (var "j"));
    ]
    [ Stmt.Set ("x", Expr.var "k") ]

let test_bmat_figure5 () =
  let bm = Bmat.of_nest (figure5_nest ()) in
  check_int "depth" 3 (Bmat.depth bm);
  (* type(u2, i) = linear *)
  check_btype "type(u2,i)" Btype.Linear (Bmat.btype bm Bmat.U ~loop:1 ~wrt:0);
  (* type(l3, i) = nonlinear *)
  check_btype "type(l3,i)" Btype.Nonlinear (Bmat.btype bm Bmat.L ~loop:2 ~wrt:0);
  (* type(u3, j) = linear *)
  check_btype "type(u3,j)" Btype.Linear (Bmat.btype bm Bmat.U ~loop:2 ~wrt:1);
  (* type(s3, i) = linear *)
  check_btype "type(s3,i)" Btype.Linear (Bmat.btype bm Bmat.S ~loop:2 ~wrt:0);
  (* lower bound of i is the two-term max <n, 3> *)
  check_int "max lower has two terms" 2 (List.length bm.Bmat.lowers.(0));
  (* coefficient entries *)
  check_int "UB(2,1) coeff of j in u3" 2
    (List.hd bm.Bmat.uppers.(2)).Bmat.coeffs.(1)

let test_bmat_roundtrip () =
  let nest = figure5_nest () in
  let bm = Bmat.of_nest nest in
  (* A term's expression: its coefficients on the outer loop variables
     plus its base. *)
  let term (tm : Bmat.term) =
    let e = ref tm.Bmat.base in
    Array.iteri
      (fun j c -> if c <> 0 then e := Expr.add !e (Expr.mul (Expr.int c) (Expr.var bm.Bmat.vars.(j))))
      tm.Bmat.coeffs;
    !e
  in
  let eval_env = [ ("n", Expr.int 7); ("i", Expr.int 9); ("j", Expr.int 2) ] in
  let eq name a b =
    Alcotest.check
      (Alcotest.testable Expr.pp Expr.equal)
      name (Expr.subst eval_env a) (Expr.subst eval_env b)
  in
  List.iteri
    (fun k (l : Nest.loop) ->
      eq (Printf.sprintf "lower %d" k) l.Nest.lo (Expr.max_list (List.map term bm.Bmat.lowers.(k)));
      eq (Printf.sprintf "upper %d" k) l.Nest.hi (Expr.min_list (List.map term bm.Bmat.uppers.(k)));
      eq (Printf.sprintf "step %d" k) l.Nest.step (Bmat.step_expr bm k))
    nest.Nest.loops

(* ------------------------------------------------------------------ *)
(* Fourier-Motzkin                                                     *)
(* ------------------------------------------------------------------ *)

(* Enumerate integer points of bounds produced by FM, outermost first. *)
let enumerate_points vars (bounds : (Expr.t * Expr.t) array) env0 =
  let n = Array.length bounds in
  let points = ref [] in
  let rec go k env point =
    if k = n then points := List.rev point :: !points
    else
      let lo, hi = bounds.(k) in
      let lo = match Expr.subst env lo with Expr.Int v -> v | e -> failwith (Expr.to_string e) in
      let hi = match Expr.subst env hi with Expr.Int v -> v | e -> failwith (Expr.to_string e) in
      for v = lo to hi do
        go (k + 1) ((vars.(k), Expr.int v) :: env) (v :: point)
      done
  in
  go 0 env0 [];
  List.sort compare !points

let test_fm_triangular_interchange () =
  (* Figure 4(a)->(b): interchange of do i = 1, n / do j = i, n. *)
  let nest =
    Nest.make
      [
        Nest.loop "i" Expr.one (Expr.var "n");
        Nest.loop "j" (Expr.var "i") (Expr.var "n");
      ]
      [ Stmt.Set ("x", Expr.zero) ]
  in
  let sys = Fourier.nest_system nest in
  let minv = Itf_mat.Intmat.interchange 2 0 1 in
  (* y = M x with M = interchange; M^-1 = M. *)
  let sys' = Fourier.substitute sys minv [| "jj"; "ii" |] in
  let bounds = Fourier.bounds sys' in
  let env0 = [ ("n", Expr.int 6) ] in
  let expected =
    (* all (j, i) with 1 <= i <= 6, i <= j <= 6 *)
    List.sort compare
      (List.concat
         (List.init 6 (fun i ->
              List.filter_map
                (fun j -> if j >= i + 1 then Some [ j; i + 1 ] else None)
                (List.init 6 (fun j -> j + 1)))))
  in
  Alcotest.(check (list (list int)))
    "interchanged triangle enumerates the same points" expected
    (enumerate_points [| "jj"; "ii" |] bounds env0)

let test_fm_skew_interchange_figure1 () =
  (* Figure 1: skew j by i then interchange, on do i = 2, n-1 x2.
     Transformed bounds should enumerate (jj, ii) with jj = i+j. *)
  let nest =
    Nest.make
      [
        Nest.loop "i" (Expr.int 2) Expr.(sub (var "n") (int 1));
        Nest.loop "j" (Expr.int 2) Expr.(sub (var "n") (int 1));
      ]
      [ Stmt.Set ("x", Expr.zero) ]
  in
  let sys = Fourier.nest_system nest in
  let m =
    Itf_mat.Intmat.mul (Itf_mat.Intmat.interchange 2 0 1) (Itf_mat.Intmat.skew 2 0 1 1)
  in
  let minv = Itf_mat.Intmat.inverse_unimodular m in
  let sys' = Fourier.substitute sys minv [| "jj"; "ii" |] in
  let bounds = Fourier.bounds sys' in
  let n = 7 in
  let expected =
    List.sort compare
      (List.concat
         (List.init (n - 2) (fun i0 ->
              List.init (n - 2) (fun j0 ->
                  let i = i0 + 2 and j = j0 + 2 in
                  [ i + j; i ]))))
  in
  Alcotest.(check (list (list int)))
    "figure 1 transformed space" expected
    (enumerate_points [| "jj"; "ii" |] bounds [ ("n", Expr.int n) ]);
  (* The paper's Figure 1(b) bounds: jj = 4 .. n+n-2, ii = max(2, jj-n+1)
     .. min(n-1, jj-2). Check endpoints for n = 7. *)
  let lo0, hi0 = bounds.(0) in
  Alcotest.(check int) "jj lower" 4
    (match Expr.subst [ ("n", Expr.int n) ] lo0 with Expr.Int v -> v | _ -> -1);
  Alcotest.(check int) "jj upper" (n + n - 2)
    (match Expr.subst [ ("n", Expr.int n) ] hi0 with Expr.Int v -> v | _ -> -1)

let test_fm_unbounded () =
  let sys =
    { Fourier.vars = [| "x" |]; ineqs = [ Fourier.ineq [| 1 |] Expr.zero ] }
  in
  check_bool "unbounded raises" true
    (match Fourier.bounds sys with
    | exception Fourier.Unbounded _ -> true
    | _ -> false)

let test_fm_nonunit_coefficients () =
  (* 2 <= 3x <= 17  ->  x in [1, 5] *)
  let sys =
    {
      Fourier.vars = [| "x" |];
      ineqs =
        [
          Fourier.ineq [| 3 |] (Expr.int (-2));
          Fourier.ineq [| -3 |] (Expr.int 17);
        ];
    }
  in
  let bounds = Fourier.bounds sys in
  let lo, hi = bounds.(0) in
  Alcotest.(check int) "ceil(2/3)" 1
    (match Expr.subst [] lo with Expr.Int v -> v | _ -> -99);
  Alcotest.(check int) "floor(17/3)" 5
    (match Expr.subst [] hi with Expr.Int v -> v | _ -> -99)

let test_fm_infeasibility () =
  let sys ineqs = { Fourier.vars = [| "x"; "y" |]; ineqs } in
  (* x >= 1 and x <= 0: empty *)
  check_bool "numeric contradiction" true
    (Fourier.definitely_infeasible
       (sys [ Fourier.ineq [| 1; 0 |] (Expr.int (-1)); Fourier.ineq [| -1; 0 |] Expr.zero ]));
  (* x >= 0, y >= x + 1, y <= x: empty via combination *)
  check_bool "coupled contradiction" true
    (Fourier.definitely_infeasible
       (sys
          [
            Fourier.ineq [| 1; 0 |] Expr.zero;
            Fourier.ineq [| -1; 1 |] (Expr.int (-1));
            Fourier.ineq [| 1; -1 |] Expr.zero;
          ]));
  (* x in [0, 5]: feasible *)
  check_bool "feasible box" false
    (Fourier.definitely_infeasible
       (sys [ Fourier.ineq [| 1; 0 |] Expr.zero; Fourier.ineq [| -1; 0 |] (Expr.int 5) ]));
  (* x <= n with symbolic n: unknown, treated feasible *)
  check_bool "symbolic ground stays feasible" false
    (Fourier.definitely_infeasible
       (sys
          [
            Fourier.ineq [| 1; 0 |] Expr.zero;
            Fourier.ineq [| -1; 0 |] (Expr.var "n");
            (* even together with n <= -1 as a ground symbolic fact *)
            Fourier.ineq [| 0; 0 |] Expr.(sub (int (-1)) (var "n"));
          ]));
  (* gcd normalization adds integer tightening: 1 <= 2x <= 1 has the
     rational solution x = 1/2 but no integer one *)
  check_bool "integer tightening via gcd" true
    (Fourier.definitely_infeasible
       (sys [ Fourier.ineq [| 2; 0 |] (Expr.int (-1)); Fourier.ineq [| -2; 0 |] (Expr.int 1) ]));
  (* Integer rows: every symbol and every distinct non-affine residue of
     the bases is its own column, so invariants cancel between rows. *)
  let between lo hi =
    (* lo <= x <= hi - 1 *)
    sys [ Fourier.ineq [| 1; 0 |] (Expr.neg lo); Fourier.ineq [| -1; 0 |] Expr.(sub hi (int 1)) ]
  in
  let n = Expr.var "n" and half = Expr.(div (var "n") (int 2)) in
  check_bool "x - n >= 0, n - 1 - x >= 0" true
    (Fourier.definitely_infeasible (between n n));
  check_bool "opaque residue n / 2 cancels like a symbol" true
    (Fourier.definitely_infeasible (between half half));
  check_bool "distinct residues stay independent" false
    (Fourier.definitely_infeasible (between half Expr.(div (var "n") (int 3))));
  (* parallel rows keep only the tightest constant: x >= 3 survives
     beside x >= 0 and x >= 1, so x <= 2 contradicts it *)
  check_bool "tightest of parallel rows" true
    (Fourier.definitely_infeasible
       (sys
          [
            Fourier.ineq [| 1; 0 |] Expr.zero;
            Fourier.ineq [| 1; 0 |] (Expr.int (-3));
            Fourier.ineq [| 1; 0 |] (Expr.int (-1));
            Fourier.ineq [| -1; 0 |] (Expr.int 2);
          ]));
  (* eliminating x from 2x >= y and 3x <= y - 1 needs the multipliers 3
     and 2: y <= -2, which contradicts y >= 0 *)
  check_bool "non-unit multipliers" true
    (Fourier.definitely_infeasible
       (sys
          [
            Fourier.ineq [| 2; -1 |] Expr.zero;
            Fourier.ineq [| -3; 1 |] (Expr.int (-1));
            Fourier.ineq [| 0; 1 |] Expr.zero;
          ]));
  (* blowup cap gives up gracefully. It bounds the work of one
     elimination step, |rest| + |pos|*|neg|, not the input: eliminating x
     from these six rows combines nine, so [~max_ineqs:8] gives up
     although the input is smaller than the cap. *)
  let six =
    sys
      [
        (* x >= 2, x >= y, x >= 2y *)
        Fourier.ineq [| 1; 0 |] (Expr.int (-2));
        Fourier.ineq [| 1; -1 |] Expr.zero;
        Fourier.ineq [| 1; -2 |] Expr.zero;
        (* x <= 0, x <= y - 5, x <= -y *)
        Fourier.ineq [| -1; 0 |] Expr.zero;
        Fourier.ineq [| -1; 1 |] (Expr.int (-5));
        Fourier.ineq [| -1; -1 |] Expr.zero;
      ]
  in
  check_bool "uncapped" true (Fourier.definitely_infeasible six);
  check_bool "cap returns false" false
    (Fourier.definitely_infeasible ~max_ineqs:1
       (sys
          [
            Fourier.ineq [| 1; 1 |] Expr.zero;
            Fourier.ineq [| -1; 2 |] Expr.zero;
            Fourier.ineq [| 1; -2 |] (Expr.int (-1));
            Fourier.ineq [| -1; -1 |] (Expr.int (-1));
          ]));
  check_bool "~max_ineqs:9 allows the nine combinations" true
    (Fourier.definitely_infeasible ~max_ineqs:9 six);
  check_bool "~max_ineqs:8 gives up before combining" false
    (Fourier.definitely_infeasible ~max_ineqs:8 six);
  check_bool "~max_ineqs:3 gives up before combining" false
    (Fourier.definitely_infeasible ~max_ineqs:3 six)

(* ------------------------------------------------------------------ *)
(* FM property: random 3-deep rectangular/triangular nests, random     *)
(* unimodular transforms; point sets must be in bijection.             *)
(* ------------------------------------------------------------------ *)

let gen_unimodular n =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (oneof
         [
           map2 (fun i j -> Itf_mat.Intmat.interchange n i j) (int_range 0 (n - 1))
             (int_range 0 (n - 1));
           map (fun i -> Itf_mat.Intmat.reversal n i) (int_range 0 (n - 1));
           (fun st ->
             let i = int_range 0 (n - 1) st in
             let j = (i + 1 + int_range 0 (n - 2) st) mod n in
             Itf_mat.Intmat.skew n i j (int_range (-2) 2 st));
         ])
    |> map (List.fold_left Itf_mat.Intmat.mul (Itf_mat.Intmat.identity n)))

let gen_nest3 =
  (* loops with small constant bounds, possibly triangular *)
  QCheck.Gen.(
    let bound lo = int_range lo (lo + 4) in
    bound 0 >>= fun h1 ->
    bound 0 >>= fun h2 ->
    bound 0 >>= fun h3 ->
    bool >>= fun tri2 ->
    bool >>= fun tri3 ->
    return
      (Nest.make
         [
           Nest.loop "x1" Expr.zero (Expr.int h1);
           Nest.loop "x2"
             (if tri2 then Expr.var "x1" else Expr.zero)
             (Expr.int h2);
           Nest.loop "x3"
             (if tri3 then Expr.var "x2" else Expr.zero)
             (Expr.int h3);
         ]
         [ Stmt.Set ("t", Expr.zero) ]))

let arb_fm_case =
  QCheck.make
    ~print:(fun (nest, m) ->
      Nest.to_string nest ^ "\n" ^ Format.asprintf "%a" Itf_mat.Intmat.pp m)
    QCheck.Gen.(pair gen_nest3 (gen_unimodular 3))

let enumerate_nest_points (nest : Nest.t) =
  (* Enumerate the original nest's iteration vectors (constant bounds). *)
  let rec go env = function
    | [] -> [ [] ]
    | (l : Nest.loop) :: rest ->
      let lo =
        match Expr.subst env l.Nest.lo with Expr.Int v -> v | _ -> assert false
      in
      let hi =
        match Expr.subst env l.Nest.hi with Expr.Int v -> v | _ -> assert false
      in
      List.concat
        (List.init
           (max 0 (hi - lo + 1))
           (fun k ->
             let v = lo + k in
             List.map (fun tl -> v :: tl) (go ((l.Nest.var, Expr.int v) :: env) rest)))
  in
  go [] nest.Nest.loops

let prop_fm_bijection =
  QCheck.Test.make ~name:"FM bounds enumerate exactly the mapped points"
    ~count:75 arb_fm_case (fun (nest, m) ->
      let sys = Fourier.nest_system nest in
      let minv = Itf_mat.Intmat.inverse_unimodular m in
      let sys' = Fourier.substitute sys minv [| "y1"; "y2"; "y3" |] in
      let bounds = Fourier.bounds sys' in
      let expected =
        List.sort compare
          (List.map
             (fun p -> Array.to_list (Builders.mat_apply m (Array.of_list p)))
             (enumerate_nest_points nest))
      in
      let actual = enumerate_points [| "y1"; "y2"; "y3" |] bounds [] in
      expected = actual)

(* ------------------------------------------------------------------ *)
(* Access: subscripts over the transformed loop variables              *)
(* ------------------------------------------------------------------ *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

let example_nest name =
  Itf_lang.Parser.parse_nest (read_file ("../examples/nests/" ^ name ^ ".loop"))

(* The nest an example script generates from an example nest. *)
let scripted name script =
  let nest = example_nest name in
  let seq =
    Itf_lang.Script.parse ~depth:(Nest.depth nest)
      (read_file ("../examples/nests/" ^ script ^ ".seq"))
  in
  (Itf_core.Framework.apply_exn nest seq).Itf_core.Framework.nest

let coeffs (af : Affine.t) = af.Affine.coeffs

(* Paper Figure 1: the skewed and interchanged stencil's inits are
   i = ii and j = jj - ii, so a(i - 1, j) reads a(ii - 1, jj - ii). *)
let test_access_skew_interchange () =
  let nest = scripted "stencil" "skew_interchange" in
  check_bool "loops jj, ii" true (Nest.loop_vars nest = [ "jj"; "ii" ]);
  let a = Access.of_nest nest in
  check_bool "both inits substituted, in order" true
    (List.map (fun (s : Access.scalar) -> (s.var, coeffs s.value)) a.Access.scalars
    = [ ("i", [ ("ii", 1) ]); ("j", [ ("ii", -1); ("jj", 1) ]) ]);
  let refs = a.Access.refs in
  check_int "six references" 6 (List.length refs);
  (* Touch order: the five loads of the right-hand side, then the store,
     which comes first in source order. *)
  check_bool "loads then the store" true
    (List.map (fun (r : Access.reference) -> r.write) refs
    = [ false; false; false; false; false; true ]);
  check_bool "source order puts the store first" true
    (List.map (fun (r : Access.reference) -> r.pos) refs = [ 1; 2; 3; 4; 5; 0 ]);
  let (second : Access.reference) = List.nth refs 1 in
  (match second.dims with
  | [ d0; d1 ] ->
    check_bool "a(i - 1, .) is ii - 1" true
      (coeffs d0 = [ ("ii", 1) ] && Expr.to_int d0.Affine.base = Some (-1));
    check_bool "a(., j) is jj - ii" true
      (coeffs d1 = [ ("ii", -1); ("jj", 1) ] && Expr.to_int d1.Affine.base = Some 0)
  | _ -> Alcotest.fail "a has two subscripts");
  List.iter
    (fun (r : Access.reference) ->
      check_bool "unguarded" false r.guarded;
      check_bool "affine" true (List.for_all Affine.is_affine r.dims))
    refs

(* Appendix A's pipeline ends in a Coalesce: its inits take jic apart
   with div and mod, and the body still reads i, j and k directly. *)
let test_access_coalesce () =
  let nest = scripted "matmul" "matmul_pipeline" in
  let a = Access.of_nest nest in
  check_bool "the blocked-loop inits" true
    (List.map (fun (s : Access.scalar) -> s.var) a.Access.scalars = [ "jj"; "ii" ]);
  List.iter
    (fun (s : Access.scalar) ->
      check_bool (s.var ^ ": div/mod of jic is non-affine in jic") true
        (s.value.Affine.nonlinear_in = [ "jic" ] && s.value.Affine.coeffs = []);
      check_bool (s.var ^ ": invariant in the innermost i") true
        (Option.map Expr.to_int s.slope = Some (Some 0)))
    a.Access.scalars;
  let store =
    List.find (fun (r : Access.reference) -> r.write) a.Access.refs
  in
  check_string "the store is to A" "A" store.array;
  match store.dims with
  | [ di; dj ] ->
    check_bool "i is affine with coefficient 1" true
      (Affine.is_affine di && coeffs di = [ ("i", 1) ]);
    check_bool "j likewise" true (Affine.is_affine dj && coeffs dj = [ ("j", 1) ])
  | _ -> Alcotest.fail "A has two subscripts"

(* A subscript that reads a body scalar after its statement gets the
   statement's value; before it, the value carried from the previous
   iteration, which is non-affine in every loop variable. *)
let test_access_body_scalars () =
  let nest =
    Itf_lang.Parser.parse_nest
      "do i = 1, n\n\
      \  do j = 1, n\n\
      \    b(t) = 0\n\
      \    t = i + 2 * j\n\
      \    a(t + 1) = 0\n\
      \  enddo\n\
       enddo\n"
  in
  match (Access.of_nest nest).Access.refs with
  | [ before; after ] ->
    check_bool "read before its statement" true
      (before.dims |> List.for_all (fun (af : Affine.t) ->
           af.Affine.nonlinear_in = [ "i"; "j" ]));
    check_bool "read after its statement" true
      (after.dims |> List.for_all (fun (af : Affine.t) ->
           Affine.is_affine af && coeffs af = [ ("i", 1); ("j", 2) ]))
  | _ -> Alcotest.fail "two references"

(* A zero factor does not hide a non-linear use: the substitution keeps
   [0 * (6 / (j - 3))], which raises at j = 3. A symbol times the
   innermost index is non-affine for the forms (no integer stride) but
   has a symbolic innermost coefficient. *)
let test_access_folded_and_symbolic () =
  let nest =
    Itf_lang.Parser.parse_nest
      "do i = 1, n\n\
      \  do j = 1, n\n\
      \    t = 0 * (6 / (j - 3))\n\
      \    b(i + 0 * (6 / (j - 3)), j + t) = 0\n\
      \    a(i + n * j) = 0\n\
      \  enddo\n\
       enddo\n"
  in
  let a = Access.of_nest nest in
  let nonlinear_in_j (af : Affine.t) = af.Affine.nonlinear_in = [ "j" ] in
  (match a.Access.scalars with
  | [ t ] ->
    check_bool "t is non-affine in j" true (nonlinear_in_j t.value);
    check_bool "t has no innermost coefficient" true (t.slope = None)
  | _ -> Alcotest.fail "one scalar");
  match a.Access.refs with
  | [ b; a ] ->
    check_bool "b's subscripts are non-affine in j" true
      (List.for_all nonlinear_in_j b.dims);
    check_bool "b has no innermost coefficients" true
      (List.for_all Option.is_none b.slopes);
    check_bool "a(i + n * j) is non-affine in j" true
      (List.for_all nonlinear_in_j a.dims);
    check_bool "a(i + n * j) has the coefficient n" true
      (a.slopes = [ Some (Expr.var "n") ])
  | _ -> Alcotest.fail "two references"

(* On static-control Gen nests without guards (the root and the
   generated nest), the forms evaluated at each iteration give the flat
   indices the interpreter's tracer reports, in touch order. *)
let test_access_matches_tracer () =
  let module Env = Itf_exec.Env in
  let st = Random.State.make [| 25 |] in
  let checked = ref 0 in
  for _ = 1 to 1000 do
    let c = Itf_check.Gen.case st in
    let nests =
      c.Itf_check.Gen.nest
      :: (match Itf_core.Framework.apply c.Itf_check.Gen.nest c.Itf_check.Gen.seq with
         | Ok r -> [ r.Itf_core.Framework.nest ]
         | Error _ -> [])
    in
    List.iter
      (fun nest ->
        let refs = (Access.of_nest nest).Access.refs in
        if
          Itf_exec.Compile.static_control nest
          && List.for_all (fun (r : Access.reference) -> not r.guarded) refs
        then begin
          let params = c.Itf_check.Gen.params in
          let env = Itf_check.Oracle.make_env ~params nest in
          let iterations = ref [] and events = ref [] in
          let close () =
            match !iterations with
            | (it, _) :: rest -> iterations := (it, List.rev !events) :: rest
            | [] -> ()
          in
          Env.set_tracer env (Some (fun ev -> events := ev :: !events));
          Itf_exec.Interp.run env nest ~on_iteration:(fun it ->
              close ();
              events := [];
              iterations := (it, []) :: !iterations);
          close ();
          let vars = Nest.loop_vars nest in
          let expected it =
            let at = Env.create () in
            List.iter (fun (v, x) -> Env.set_scalar at v x) params;
            List.iteri (fun k v -> Env.set_scalar at v it.(k)) vars;
            List.map
              (fun (r : Access.reference) ->
                let info = Env.array_info env r.array in
                let flat = ref 0 in
                List.iteri
                  (fun d af ->
                    let x =
                      Builders.eval at (affine_expr af)
                    in
                    flat := !flat + ((x - info.Env.los.(d)) * info.Env.strides.(d)))
                  r.dims;
                {
                  Env.array = r.array;
                  flat = !flat;
                  kind = (if r.write then Env.Write else Env.Read);
                })
              refs
          in
          List.iter
            (fun (it, evs) ->
              incr checked;
              if expected it <> evs then
                Alcotest.failf "forms disagree with the tracer on\n%s"
                  (Nest.to_string nest))
            !iterations
        end)
      nests
  done;
  check_bool "many iterations checked" true (!checked > 10_000)

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_fm_bijection ]

let () =
  Alcotest.run "bounds"
    [
      ("btype", [ Alcotest.test_case "lattice" `Quick test_lattice ]);
      ( "affine",
        [
          Alcotest.test_case "basic split" `Quick test_split_basic;
          Alcotest.test_case "nonlinear detection" `Quick test_split_nonlinear;
          Alcotest.test_case "symbolic coefficient" `Quick test_split_symbol_product;
          Alcotest.test_case "roundtrip" `Quick test_split_roundtrip;
        ] );
      ( "classify",
        [
          Alcotest.test_case "type lattice values" `Quick test_classify;
          Alcotest.test_case "max/min special case" `Quick
            test_classify_minmax_special_case;
        ] );
      ( "bmat",
        [
          Alcotest.test_case "figure 5 entries" `Quick test_bmat_figure5;
          Alcotest.test_case "expression roundtrip" `Quick test_bmat_roundtrip;
        ] );
      ( "fourier",
        [
          Alcotest.test_case "triangular interchange (fig 4)" `Quick
            test_fm_triangular_interchange;
          Alcotest.test_case "skew+interchange (fig 1)" `Quick
            test_fm_skew_interchange_figure1;
          Alcotest.test_case "unbounded detection" `Quick test_fm_unbounded;
          Alcotest.test_case "non-unit coefficients" `Quick
            test_fm_nonunit_coefficients;
          Alcotest.test_case "rational infeasibility" `Quick test_fm_infeasibility;
        ] );
      ( "access",
        [
          Alcotest.test_case "skew+interchange inits" `Quick
            test_access_skew_interchange;
          Alcotest.test_case "coalesce div/mod" `Quick test_access_coalesce;
          Alcotest.test_case "body scalars" `Quick test_access_body_scalars;
          Alcotest.test_case "folded and symbolic" `Quick
            test_access_folded_and_symbolic;
          Alcotest.test_case "forms match the tracer on Gen nests" `Quick
            test_access_matches_tracer;
        ] );
      ("properties", qcheck_tests);
    ]
