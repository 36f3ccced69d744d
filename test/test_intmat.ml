(* Tests for the integer matrix substrate (lib/intmat). *)

module M = Itf_mat.Intmat

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mat = Alcotest.testable M.pp M.equal

(* ------------------------------------------------------------------ *)
(* Intmat basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_construct () =
  let m = M.of_rows [ [ 1; 2 ]; [ 3; 4 ] ] in
  check_int "rows" 2 (M.rows m);
  check_int "cols" 2 (M.cols m);
  check_int "(0,1)" 2 (M.get m 0 1);
  check_int "(1,0)" 3 (M.get m 1 0);
  Alcotest.check_raises "ragged"
    (Invalid_argument "Intmat.of_rows: ragged or empty rows") (fun () ->
      ignore (M.of_rows [ [ 1 ]; [ 1; 2 ] ]))

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
  let m = M.of_rows [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ] ] in
  Alcotest.check mat "I*m = m" m (M.mul i3 m);
  Alcotest.check mat "m*I = m" m (M.mul m i3)

let test_mul_known () =
  let a = M.of_rows [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = M.of_rows [ [ 0; 1 ]; [ 1; 0 ] ] in
  Alcotest.check mat "a*b" (M.of_rows [ [ 2; 1 ]; [ 4; 3 ] ]) (M.mul a b)

let test_apply () =
  (* The skew-then-interchange example from paper Figure 1:
     first skew j by i (j' = i + j), then interchange. *)
  let skew = M.skew 2 0 1 1 in
  let inter = M.interchange 2 0 1 in
  let t = M.mul inter skew in
  let d = M.apply t [| 1; 0 |] in
  Alcotest.(check (array int)) "skew+interchange (1,0)" [| 1; 1 |] d;
  let d = M.apply t [| 0; 1 |] in
  Alcotest.(check (array int)) "skew+interchange (0,1)" [| 1; 0 |] d

let test_transpose () =
  let m = M.of_rows [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ] in
  Alcotest.check mat "transpose"
    (M.of_rows [ [ 1; 4 ]; [ 2; 5 ]; [ 3; 6 ] ])
    (M.transpose m);
  Alcotest.check mat "involution" m (M.transpose (M.transpose m))

(* ------------------------------------------------------------------ *)
(* Determinants and unimodularity                                      *)
(* ------------------------------------------------------------------ *)

let test_det_known () =
  check_int "det I3" 1 (M.det (M.identity 3));
  check_int "det 2x2" (-2) (M.det (M.of_rows [ [ 1; 2 ]; [ 3; 4 ] ]));
  check_int "det singular" 0 (M.det (M.of_rows [ [ 1; 2 ]; [ 2; 4 ] ]));
  check_int "det needs pivot swap" (-1)
    (M.det (M.of_rows [ [ 0; 1 ]; [ 1; 0 ] ]));
  check_int "det 3x3" (-306)
    (M.det (M.of_rows [ [ 6; 1; 1 ]; [ 4; -2; 5 ]; [ 2; 8; 7 ] ]))

let test_unimodular_generators () =
  check_bool "interchange unimodular" true (M.is_unimodular (M.interchange 4 1 3));
  check_bool "reversal unimodular" true (M.is_unimodular (M.reversal 4 2));
  check_bool "skew unimodular" true (M.is_unimodular (M.skew 4 0 3 17));
  check_bool "permutation unimodular" true
    (M.is_unimodular (M.permutation [| 2; 0; 1 |]));
  check_bool "non-unimodular rejected" false
    (M.is_unimodular (M.of_rows [ [ 2; 0 ]; [ 0; 1 ] ]))

let test_inverse () =
  let m = M.mul (M.skew 3 0 2 5) (M.mul (M.interchange 3 0 1) (M.reversal 3 2)) in
  let mi = M.inverse_unimodular m in
  Alcotest.check mat "m * m^-1 = I" (M.identity 3) (M.mul m mi);
  Alcotest.check mat "m^-1 * m = I" (M.identity 3) (M.mul mi m);
  Alcotest.check_raises "inverse of non-unimodular"
    (Invalid_argument "Intmat.inverse_unimodular: matrix is not unimodular")
    (fun () -> ignore (M.inverse_unimodular (M.of_rows [ [ 2 ] ])))

let test_permutation_semantics () =
  (* perm.(k) = destination of loop k: y_{perm k} = x_k. *)
  let p = M.permutation [| 2; 0; 1 |] in
  let y = M.apply p [| 10; 20; 30 |] in
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

let prop_det_multiplicative =
  QCheck.Test.make ~name:"det (a*b) = det a * det b" ~count:200
    (QCheck.pair arb_mat3 arb_mat3) (fun (a, b) ->
      M.det (M.mul a b) = M.det a * M.det b)

let prop_det_transpose =
  QCheck.Test.make ~name:"det (transpose a) = det a" ~count:200 arb_mat3
    (fun a -> M.det (M.transpose a) = M.det a)

let prop_unimodular_closed =
  QCheck.Test.make ~name:"unimodular products stay unimodular" ~count:100
    arb_unimodular3 M.is_unimodular

let prop_inverse_roundtrip =
  QCheck.Test.make ~name:"unimodular inverse roundtrip" ~count:100
    arb_unimodular3 (fun m ->
      M.equal (M.mul m (M.inverse_unimodular m)) (M.identity 3))

let prop_apply_linear =
  QCheck.Test.make ~name:"apply is linear" ~count:200
    (QCheck.pair arb_mat3
       (QCheck.pair
          (QCheck.array_of_size (QCheck.Gen.return 3) (QCheck.int_range (-9) 9))
          (QCheck.array_of_size (QCheck.Gen.return 3) (QCheck.int_range (-9) 9))))
    (fun (m, (u, v)) ->
      let w = Array.init 3 (fun i -> u.(i) + v.(i)) in
      let mu = M.apply m u and mv = M.apply m v and mw = M.apply m w in
      Array.init 3 (fun i -> mu.(i) + mv.(i)) = mw)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_det_multiplicative;
      prop_det_transpose;
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
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "determinants" `Quick test_det_known;
          Alcotest.test_case "unimodular generators" `Quick test_unimodular_generators;
          Alcotest.test_case "unimodular inverse" `Quick test_inverse;
          Alcotest.test_case "permutation semantics" `Quick test_permutation_semantics;
          Alcotest.test_case "gcd" `Quick test_gcd;
        ] );
      ("properties", qcheck_tests);
    ]
