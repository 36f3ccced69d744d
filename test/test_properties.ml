(* Cross-module property tests: algebraic laws and agreement between
   independent implementations of the same notion. *)

open Itf_ir
module Dir = Itf_dep.Dir
module Depvec = Itf_dep.Depvec
module T = Itf_core.Template
module Depmap = Itf_core.Depmap
module Sequence = Itf_core.Sequence
module Queries = Itf_core.Queries
module Intmat = Itf_mat.Intmat

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_dir = QCheck.Gen.oneofl Dir.[ Zero; Pos; Neg; NonNeg; NonPos; NonZero; Any ]

let gen_elem =
  QCheck.Gen.(
    oneof [ map Depvec.dist (int_range (-4) 4); map Depvec.dir gen_dir ])

let gen_vec n = QCheck.Gen.(map Array.of_list (list_repeat n gen_elem))

let arb_vec n = QCheck.make ~print:Depvec.to_string (gen_vec n)

let gen_perm n st =
  let a = Array.init n Fun.id in
  for k = n - 1 downto 1 do
    let j = QCheck.Gen.int_range 0 k st in
    let tmp = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- tmp
  done;
  a

let gen_revperm n =
  QCheck.Gen.(
    map2
      (fun rev perm -> T.reverse_permute ~rev ~perm)
      (map Array.of_list (list_repeat n bool))
      (gen_perm n))

let arb_revperm n =
  QCheck.make ~print:(Format.asprintf "%a" T.pp) (gen_revperm n)

let sample_ints e =
  List.filter (Depvec.elem_contains e) [ -3; -2; -1; 0; 1; 2; 3 ]

let enumerate_tuples (d : Depvec.t) =
  Array.fold_right
    (fun e acc -> List.concat_map (fun x -> List.map (fun tl -> x :: tl) acc) (sample_ints e))
    d [ [] ]

(* ------------------------------------------------------------------ *)
(* Dir laws                                                            *)
(* ------------------------------------------------------------------ *)

let arb_dir = QCheck.make ~print:Dir.to_string gen_dir

let prop_union_is_join =
  QCheck.Test.make ~name:"Dir.union is the subset-join" ~count:300
    (QCheck.pair arb_dir arb_dir) (fun (a, b) ->
      let u = Dir.union a b in
      Dir.subset a u && Dir.subset b u
      && List.for_all
           (fun c ->
             not (Dir.subset a c && Dir.subset b c) || Dir.subset u c)
           Dir.[ Zero; Pos; Neg; NonNeg; NonPos; NonZero; Any ])

let prop_reverse_antimorphism =
  QCheck.Test.make ~name:"reverse distributes over union" ~count:300
    (QCheck.pair arb_dir arb_dir) (fun (a, b) ->
      Dir.equal
        (Dir.reverse (Dir.union a b))
        (Dir.union (Dir.reverse a) (Dir.reverse b)))

let prop_merge_lex_assoc =
  QCheck.Test.make ~name:"merge_lex is associative" ~count:300
    (QCheck.triple arb_dir arb_dir arb_dir) (fun (a, b, c) ->
      Dir.equal
        (Dir.merge_lex a (Dir.merge_lex b c))
        (Dir.merge_lex (Dir.merge_lex a b) c))

(* ------------------------------------------------------------------ *)
(* ReversePermute composition vs sequential application                *)
(* ------------------------------------------------------------------ *)

let prop_revperm_compose =
  QCheck.Test.make
    ~name:"composed ReversePermute maps vectors like the sequence" ~count:300
    (QCheck.triple (arb_revperm 3) (arb_revperm 3) (arb_vec 3))
    (fun (a, b, d) ->
      let sequential = Depmap.map_set b (Depmap.map_set a [ d ]) in
      match Sequence.reduce [ a; b ] with
      | [] -> sequential = [ d ]
      | [ composed ] -> Depmap.map_set composed [ d ] = sequential
      | _ -> false)

let prop_revperm_matrix_agrees =
  QCheck.Test.make
    ~name:"ReversePermute's matrix maps distance vectors identically"
    ~count:300
    (QCheck.pair (arb_revperm 3)
       (QCheck.make
          ~print:Depvec.to_string
          QCheck.Gen.(
            map
              (fun l -> Array.of_list (List.map Depvec.dist l))
              (list_repeat 3 (int_range (-3) 3)))))
    (fun (rp, d) ->
      match T.to_matrix rp with
      | None -> false
      | Some m ->
        Depmap.map_vector rp d = Depmap.map_vector (T.unimodular m) d)

(* ------------------------------------------------------------------ *)
(* Sequence reduction preserves vector mapping                         *)
(* ------------------------------------------------------------------ *)

let gen_matrix_template n =
  QCheck.Gen.(
    oneof
      [
        gen_revperm n;
        map
          (fun (src, k, f) ->
            let dst = (src + 1 + k) mod n in
            T.skew ~n ~src ~dst ~factor:f)
          (triple (int_range 0 (n - 1)) (int_range 0 (n - 2)) (int_range (-2) 2));
        map (fun flags -> T.parallelize flags)
          (map Array.of_list (list_repeat n bool));
      ])

let prop_reduce_preserves_mapping =
  QCheck.Test.make ~name:"Sequence.reduce preserves the vector mapping"
    ~count:200
    (QCheck.pair
       (QCheck.make
          ~print:(Format.asprintf "%a" Sequence.pp)
          QCheck.Gen.(list_size (int_range 1 4) (gen_matrix_template 3)))
       (arb_vec 3))
    (fun (seq, d) ->
      let image s =
        List.sort_uniq compare
          (List.map Depvec.to_string
             (List.fold_left (fun vs t -> Depmap.map_set t vs) [ d ] s))
      in
      let direct = image seq and reduced = image (Sequence.reduce seq) in
      (* Reduction may gain precision on summary values (composing the
         matrices once avoids repeated interval widening; Parallelize can
         introduce summaries even on distance inputs), so the reduced
         image must be covered by the direct image. When the whole mapping
         stays exact — pure distance input and no Parallelize stage — they
         must be identical. *)
      let has_parallelize =
        List.exists (function T.Parallelize _ -> true | _ -> false) seq
      in
      if
        Array.for_all (function Depvec.Dist _ -> true | _ -> false) d
        && not has_parallelize
      then direct = reduced
      else
        List.for_all
          (fun rv ->
            List.exists
              (fun dv ->
                Depvec.subset (Depvec.of_string rv) (Depvec.of_string dv))
              direct
            || List.mem rv direct)
          reduced)

(* ------------------------------------------------------------------ *)
(* Legality vs Queries agreement on random vector sets                 *)
(* ------------------------------------------------------------------ *)

let prop_parallelizable_agrees_with_parmap =
  QCheck.Test.make
    ~name:"Queries.parallelizable = Parallelize mapping verdict" ~count:300
    (QCheck.pair
       (QCheck.make
          ~print:(fun vs -> String.concat " " (List.map Depvec.to_string vs))
          QCheck.Gen.(list_size (int_range 0 4) (gen_vec 3)))
       (QCheck.int_range 0 2))
    (fun (vectors, k) ->
      (* discard sets that are already illegal before transforming *)
      QCheck.assume (Depvec.set_may_lex_negative vectors = None);
      let t = T.parallelize_one ~n:3 k in
      let mapped = Depmap.map_set t vectors in
      Queries.parallelizable vectors k
      = (Depvec.set_may_lex_negative mapped = None))

(* ------------------------------------------------------------------ *)
(* Unimodular mapping soundness on sampled tuples                      *)
(* ------------------------------------------------------------------ *)

let gen_unimodular n =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (oneof
         [
           map2 (fun i j -> Intmat.interchange n i j) (int_range 0 (n - 1))
             (int_range 0 (n - 1));
           map (fun i -> Intmat.reversal n i) (int_range 0 (n - 1));
           (fun st ->
             let i = int_range 0 (n - 1) st in
             let j = (i + 1 + int_range 0 (n - 2) st) mod n in
             Intmat.skew n i j (int_range (-2) 2 st));
         ])
    |> map (List.fold_left Intmat.mul (Intmat.identity n)))

let prop_unimodular_map_sound =
  QCheck.Test.make
    ~name:"unimodular vector mapping covers all mapped tuples" ~count:300
    (QCheck.pair
       (QCheck.make ~print:(Format.asprintf "%a" Intmat.pp) (gen_unimodular 3))
       (arb_vec 3))
    (fun (m, d) ->
      let mapped = Depmap.map_vector (T.unimodular m) d in
      List.for_all
        (fun tuple ->
          let image = Intmat.apply m (Array.of_list tuple) in
          List.exists (fun v -> Depvec.mem v image) mapped)
        (enumerate_tuples d))

(* ------------------------------------------------------------------ *)
(* Block / Coalesce / Interleave mapping soundness on sampled tuples   *)
(* ------------------------------------------------------------------ *)

(* For a rectangular band with known size and block/interleave factor we
   can compute the image of a tuple directly and check coverage. *)
let prop_blockmap_sound =
  QCheck.Test.make ~name:"blockmap covers concrete block decompositions"
    ~count:500
    (QCheck.pair (QCheck.make ~print:Depvec.to_string (gen_vec 1))
       (QCheck.int_range 1 4))
    (fun (d, bsize) ->
      let t = T.block ~n:1 ~i:0 ~j:0 ~bsize:[| Expr.int bsize |] in
      let mapped = Depmap.map_vector ~rectangular_bands:true t d in
      (* source iteration x in [0, 12), distance dd: block coords (x /
         bsize) and position x mod bsize; the dependence entry pair is the
         difference of the two coordinates. The element entry of Table 2
         counts element distance dd (value space), block entry counts
         blocks. *)
      List.for_all
        (fun tuple ->
          match tuple with
          | [ dd ] ->
            List.for_all
              (fun x ->
                let y = x + dd in
                if y < 0 || y >= 12 then true
                else
                  let b1 = x / bsize and b2 = y / bsize in
                  (* block component counts whole blocks; element component
                     is the original distance *)
                  List.exists
                    (fun (v : Depvec.t) ->
                      Depvec.elem_contains v.(0) (b2 - b1)
                      && Depvec.elem_contains v.(1) dd)
                    mapped)
              [ 0; 1; 2; 3; 5; 8; 11 ]
          | _ -> false)
        (enumerate_tuples d))

let prop_coalesce_merge_sound =
  QCheck.Test.make ~name:"coalesce merge covers concrete linearizations"
    ~count:500
    (QCheck.make ~print:Depvec.to_string (gen_vec 2))
    (fun d ->
      let t = T.coalesce ~n:2 ~i:0 ~j:1 in
      let mapped = Depmap.map_vector ~rectangular_bands:true t d in
      let inner = 7 in
      List.for_all
        (fun tuple ->
          match tuple with
          | [ d1; d2 ] ->
            (* linear position difference for inner size 7; valid only when
               both endpoints stay in range — sample a few sources *)
            List.for_all
              (fun (x1, x2) ->
                let y1 = x1 + d1 and y2 = x2 + d2 in
                if y1 < 0 || y1 >= 5 || y2 < 0 || y2 >= inner then true
                else
                  let c1 = (x1 * inner) + x2 and c2 = (y1 * inner) + y2 in
                  List.exists (fun v -> Depvec.mem v [| c2 - c1 |]) mapped)
              [ (0, 0); (1, 3); (2, 6); (4, 0); (3, 2) ]
          | _ -> false)
        (enumerate_tuples d))

(* ------------------------------------------------------------------ *)
(* Parser roundtrip on printed nests                                   *)
(* ------------------------------------------------------------------ *)

let gen_bound_expr vars =
  QCheck.Gen.(
    oneof
      [
        map Expr.int (int_range 0 9);
        map Expr.var (oneofl ("n" :: vars));
        map2 (fun v c -> Expr.add (Expr.var v) (Expr.int c)) (oneofl ("n" :: vars))
          (int_range (-3) 3);
      ])

let gen_print_nest =
  QCheck.Gen.(
    int_range 1 3 >>= fun depth ->
    let vars = List.filteri (fun k _ -> k < depth) [ "i"; "j"; "k" ] in
    let rec build outer = function
      | [] -> return []
      | v :: rest ->
        gen_bound_expr outer >>= fun lo ->
        gen_bound_expr outer >>= fun hi ->
        oneofl [ Nest.Do; Nest.Pardo ] >>= fun kind ->
        int_range 1 3 >>= fun step ->
        build (outer @ [ v ]) rest >>= fun tail ->
        return (Nest.loop ~kind ~step:(Expr.int step) v lo hi :: tail)
    in
    build [] vars >>= fun loops ->
    gen_bound_expr vars >>= fun rhs ->
    return
      (Nest.make loops
         [
           Stmt.Store
             ({ array = "a"; index = [ Expr.var (List.hd vars) ] }, rhs);
         ]))

let prop_parser_roundtrip =
  QCheck.Test.make ~name:"print -> parse -> print is stable" ~count:300
    (QCheck.make ~print:Nest.to_string gen_print_nest) (fun nest ->
      let printed = Nest.to_string nest in
      let reparsed = Itf_lang.Parser.parse_nest printed in
      Nest.to_string reparsed = printed)

(* ------------------------------------------------------------------ *)
(* Hyperplane completion                                               *)
(* ------------------------------------------------------------------ *)

let prop_completion_first_row =
  QCheck.Test.make ~name:"hyperplane completion: unimodular with first row h"
    ~count:300
    (QCheck.make
       ~print:(fun a -> String.concat " " (Array.to_list (Array.map string_of_int a)))
       QCheck.Gen.(
         map Array.of_list (list_size (int_range 2 4) (int_range 0 6))))
    (fun h ->
      let g = Array.fold_left Intmat.gcd 0 h in
      QCheck.assume (g = 1);
      let m = Itf_opt.Hyperplane.completion h in
      Intmat.is_unimodular m && Intmat.row m 0 = h)

let () =
  Alcotest.run "properties"
    (List.map
       (fun (name, tests) -> (name, List.map QCheck_alcotest.to_alcotest tests))
       [
         ( "dir",
           [ prop_union_is_join; prop_reverse_antimorphism; prop_merge_lex_assoc ] );
         ( "templates",
           [
             prop_revperm_compose;
             prop_revperm_matrix_agrees;
             prop_reduce_preserves_mapping;
             prop_parallelizable_agrees_with_parmap;
           ] );
         ( "mapping-soundness",
           [ prop_unimodular_map_sound; prop_blockmap_sound; prop_coalesce_merge_sound ] );
         ("parser", [ prop_parser_roundtrip ]);
         ("hyperplane", [ prop_completion_first_row ]);
       ])
