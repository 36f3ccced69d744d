(* Tests for the integer matrix substrate (lib/intmat). *)

module M = Itf_mat.Intmat

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let of_rows = Builders.of_rows
let mat = Builders.mat

(* ------------------------------------------------------------------ *)
(* Intmat basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_construct () =
  let m = M.make 2 3 (fun i j -> (10 * i) + j) in
  check_int "rows" 2 (M.rows m);
  check_int "cols" 3 (M.cols m);
  check_int "(0,1)" 1 (M.get m 0 1);
  check_int "(1,0)" 10 (M.get m 1 0);
  Alcotest.(check (array int)) "row 1" [| 10; 11; 12 |] (M.row m 1);
  Alcotest.check_raises "empty"
    (Invalid_argument "Intmat.make: non-positive dims") (fun () ->
      ignore (M.make 0 2 (fun _ _ -> 0)))

let test_gcd () =
  check_int "gcd 0 0" 0 (M.gcd 0 0);
  check_int "gcd 0 n" 6 (M.gcd 0 6);
  check_int "gcd 0 -n" 6 (M.gcd 0 (-6));
  check_int "gcd n 0" 6 (M.gcd (-6) 0);
  check_int "mixed signs" 4 (M.gcd (-12) 8);
  check_int "both negative" 4 (M.gcd (-12) (-8));
  check_int "coprime" 1 (M.gcd 9 28)

let test_identity_mul () =
  let i3 = M.identity 3 in
  let m = of_rows [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ] ] in
  Alcotest.check mat "I*m = m" m (M.mul i3 m);
  Alcotest.check mat "m*I = m" m (M.mul m i3)

let test_mul_known () =
  let a = of_rows [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = of_rows [ [ 0; 1 ]; [ 1; 0 ] ] in
  Alcotest.check mat "a*b" (of_rows [ [ 2; 1 ]; [ 4; 3 ] ]) (M.mul a b)

let test_apply () =
  (* The skew-then-interchange example from paper Figure 1:
     first skew j by i (j' = i + j), then interchange. *)
  let skew = M.skew 2 0 1 1 in
  let inter = M.interchange 2 0 1 in
  let t = M.mul inter skew in
  let d = Builders.mat_apply t [| 1; 0 |] in
  Alcotest.(check (array int)) "skew+interchange (1,0)" [| 1; 1 |] d;
  let d = Builders.mat_apply t [| 0; 1 |] in
  Alcotest.(check (array int)) "skew+interchange (0,1)" [| 1; 0 |] d

(* ------------------------------------------------------------------ *)
(* Determinants and unimodularity                                      *)
(* ------------------------------------------------------------------ *)

(* The determinant is internal: [is_unimodular] reads it as +-1. *)
let test_det_known () =
  check_bool "det I3 = 1" true (M.is_unimodular (M.identity 3));
  check_bool "det 2x2 = -2" false (M.is_unimodular (of_rows [ [ 1; 2 ]; [ 3; 4 ] ]));
  check_bool "det singular = 0" false (M.is_unimodular (of_rows [ [ 1; 2 ]; [ 2; 4 ] ]));
  check_bool "det needs pivot swap = -1" true
    (M.is_unimodular (of_rows [ [ 0; 1 ]; [ 1; 0 ] ]));
  check_bool "det 3x3 pivot swap = 1" true
    (M.is_unimodular (of_rows [ [ 0; 1; 0 ]; [ 0; 0; 1 ]; [ 1; 0; 3 ] ]));
  check_bool "det 3x3 = -306" false
    (M.is_unimodular (of_rows [ [ 6; 1; 1 ]; [ 4; -2; 5 ]; [ 2; 8; 7 ] ]));
  check_bool "not square" false (M.is_unimodular (of_rows [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ]))

let test_unimodular_generators () =
  check_bool "interchange unimodular" true (M.is_unimodular (M.interchange 4 1 3));
  check_bool "reversal unimodular" true (M.is_unimodular (M.reversal 4 2));
  check_bool "skew unimodular" true (M.is_unimodular (M.skew 4 0 3 17));
  check_bool "permutation unimodular" true
    (M.is_unimodular (M.mul (M.interchange 3 0 1) (M.interchange 3 1 2)));
  check_bool "non-unimodular rejected" false
    (M.is_unimodular (of_rows [ [ 2; 0 ]; [ 0; 1 ] ]))

let test_inverse () =
  let m = M.mul (M.skew 3 0 2 5) (M.mul (M.interchange 3 0 1) (M.reversal 3 2)) in
  let mi = M.inverse_unimodular m in
  Alcotest.check mat "m * m^-1 = I" (M.identity 3) (M.mul m mi);
  Alcotest.check mat "m^-1 * m = I" (M.identity 3) (M.mul mi m);
  Alcotest.check_raises "inverse of non-unimodular"
    (Invalid_argument "Intmat.inverse_unimodular: matrix is not unimodular")
    (fun () -> ignore (M.inverse_unimodular (of_rows [ [ 2 ] ])))

let test_permutation_semantics () =
  (* A product of interchanges permutes loops: y = P x. Interchanging
     loops 0 and 1 and then 1 and 2 sends x_0 to position 2. *)
  let p = M.mul (M.interchange 3 1 2) (M.interchange 3 0 1) in
  let y = Builders.mat_apply p [| 10; 20; 30 |] in
  Alcotest.(check (array int)) "permutation apply" [| 20; 30; 10 |] y

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_small_mat n =
  QCheck.Gen.(
    array_size (return (n * n)) (int_range (-4) 4)
    |> map (fun a -> M.make n n (fun i j -> a.((i * n) + j))))

let arb_mat3 = QCheck.make ~print:(Format.asprintf "%a" M.pp) (gen_small_mat 3)

let gen_unimodular n =
  (* Product of random elementary unimodular matrices: always unimodular. *)
  QCheck.Gen.(
    list_size (int_range 1 6)
      (oneof
         [
           map2 (fun i j -> M.interchange n i j) (int_range 0 (n - 1)) (int_range 0 (n - 1));
           map (fun i -> M.reversal n i) (int_range 0 (n - 1));
           (fun st ->
             let i = int_range 0 (n - 1) st in
             let j = (i + 1 + int_range 0 (n - 2) st) mod n in
             let f = int_range (-3) 3 st in
             M.skew n i j f);
         ])
    |> map (List.fold_left M.mul (M.identity n)))

let arb_unimodular3 =
  QCheck.make ~print:(Format.asprintf "%a" M.pp) (gen_unimodular 3)

(* A 3x3 determinant by cofactor expansion: an oracle for [mul]. *)
let det3 m =
  let g = M.get m in
  (g 0 0 * ((g 1 1 * g 2 2) - (g 1 2 * g 2 1)))
  - (g 0 1 * ((g 1 0 * g 2 2) - (g 1 2 * g 2 0)))
  + (g 0 2 * ((g 1 0 * g 2 1) - (g 1 1 * g 2 0)))

let prop_det_multiplicative =
  QCheck.Test.make ~name:"det (a*b) = det a * det b" ~count:200
    (QCheck.pair arb_mat3 arb_mat3) (fun (a, b) ->
      det3 (M.mul a b) = det3 a * det3 b
      && M.is_unimodular a = (abs (det3 a) = 1))

let prop_unimodular_closed =
  QCheck.Test.make ~name:"unimodular products stay unimodular" ~count:100
    arb_unimodular3 M.is_unimodular

let prop_inverse_roundtrip =
  QCheck.Test.make ~name:"unimodular inverse roundtrip" ~count:100
    arb_unimodular3 (fun m ->
      M.compare (M.mul m (M.inverse_unimodular m)) (M.identity 3) = 0)

let prop_apply_linear =
  (* Matrix application is [mul] by a column: m (u + v) = m u + m v. *)
  let column v = M.make 3 1 (fun i _ -> v.(i)) in
  QCheck.Test.make ~name:"apply is linear" ~count:200
    (QCheck.pair arb_mat3
       (QCheck.pair
          (QCheck.array_of_size (QCheck.Gen.return 3) (QCheck.int_range (-9) 9))
          (QCheck.array_of_size (QCheck.Gen.return 3) (QCheck.int_range (-9) 9))))
    (fun (m, (u, v)) ->
      let w = Array.init 3 (fun i -> u.(i) + v.(i)) in
      let mu = M.mul m (column u) and mv = M.mul m (column v) in
      let mw = M.mul m (column w) in
      List.for_all (fun i -> M.get mu i 0 + M.get mv i 0 = M.get mw i 0) [ 0; 1; 2 ])

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_det_multiplicative;
      prop_unimodular_closed;
      prop_inverse_roundtrip;
      prop_apply_linear;
    ]

let () =
  Alcotest.run "intmat"
    [
      ( "matrix",
        [
          Alcotest.test_case "construction" `Quick test_construct;
          Alcotest.test_case "identity multiplication" `Quick test_identity_mul;
          Alcotest.test_case "known product" `Quick test_mul_known;
          Alcotest.test_case "apply (fig 1 skew+interchange)" `Quick test_apply;
          Alcotest.test_case "determinants" `Quick test_det_known;
          Alcotest.test_case "unimodular generators" `Quick test_unimodular_generators;
          Alcotest.test_case "unimodular inverse" `Quick test_inverse;
          Alcotest.test_case "permutation semantics" `Quick test_permutation_semantics;
          Alcotest.test_case "gcd" `Quick test_gcd;
        ] );
      ("properties", qcheck_tests);
    ]
