(* Tests for the automatic transformation search (lib/opt). *)

open Itf_ir
module Search = Itf_opt.Search
module Engine = Itf_opt.Engine
module Template = Itf_core.Template
module Framework = Itf_core.Framework

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_moves_generated () =
  let nest = Builders.matmul () in
  let ms = Search.moves nest ~depth:3 in
  check_bool "has interchanges" true
    (List.exists (function Template.Reverse_permute _ -> true | _ -> false) ms);
  check_bool "has parallelize" true
    (List.exists (function Template.Parallelize _ -> true | _ -> false) ms);
  check_bool "has blocks" true
    (List.exists (function Template.Block _ -> true | _ -> false) ms);
  check_bool "has coalesce" true
    (List.exists (function Template.Coalesce _ -> true | _ -> false) ms);
  check_bool "all depth-compatible" true
    (List.for_all (fun t -> Template.input_depth t = 3) ms)

(* A column-major traversal: the optimizer should discover interchange. *)
let column_major () =
  Nest.make
    [
      Nest.loop "i" Expr.one (Expr.var "n");
      Nest.loop "j" Expr.one (Expr.var "n");
    ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "j"; Expr.var "i" ] },
          Expr.add (Expr.var "i") (Expr.var "j") );
    ]

let test_search_finds_interchange_for_locality () =
  let nest = column_major () in
  let objective = Search.cache_misses ~params:[ ("n", 48) ] () in
  match Engine.search ~beam:4 ~steps:1 ~domains:1 nest objective with
  | None -> Alcotest.fail "search returned nothing"
  | Some { sequence; score; stats; result; _ } ->
    check_bool "explored several candidates" true
      (stats.Itf_opt.Stats.nodes_explored > 5);
    let baseline = objective (Framework.apply_exn nest []) in
    check_bool
      (Printf.sprintf "improved: %.0f -> %.0f misses" baseline score)
      true
      (score < baseline /. 2.);
    check_bool "found a reordering move" true (sequence <> []);
    (* winner must still be semantically equivalent *)
    check_bool "winner is equivalent" true
      (Builders.equivalent ~params:[ ("n", 12) ] ~orders:[ `Forward ] nest
         result.Framework.nest)

let test_search_finds_parallelism () =
  let nest = Builders.matmul () in
  let objective = Search.parallel_time ~procs:8 ~params:[ ("n", 12) ] () in
  match Engine.search ~beam:4 ~steps:1 ~domains:1 nest objective with
  | None -> Alcotest.fail "search returned nothing"
  | Some { sequence; score; _ } ->
    let baseline = objective (Framework.apply_exn nest []) in
    check_bool
      (Printf.sprintf "parallel time improved: %.0f -> %.0f" baseline score)
      true
      (score < baseline /. 4.);
    (* it must have parallelized something that is legal: matmul's only
       dependence is carried by k, so i or j (or both via two steps) *)
    check_bool "includes a parallelize" true
      (List.exists
         (function Template.Parallelize _ -> true | _ -> false)
         sequence)

let test_search_never_worse_than_identity () =
  (* On a nest with no improving move (already row-major, sequential
     objective), the empty sequence must win or tie. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "i") ]
  in
  let objective = Search.cache_misses ~params:[ ("n", 64) ] () in
  match Engine.search ~beam:3 ~steps:1 ~domains:1 nest objective with
  | None -> Alcotest.fail "search returned nothing"
  | Some { score; _ } ->
    let baseline = objective (Framework.apply_exn nest []) in
    check_bool "no regression" true (score <= baseline)

let test_search_respects_legality () =
  (* A loop-carried dependence on the only loop: parallelizing it would be
     fastest but is illegal; the optimizer must not pick it. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.var "n") ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i" ] },
            Expr.Load { array = "a"; index = [ Expr.(sub (var "i") (int 1)) ] } );
      ]
  in
  let objective = Search.parallel_time ~procs:8 ~params:[ ("n", 32) ] () in
  match Engine.search ~beam:4 ~steps:2 ~domains:1 nest objective with
  | None -> Alcotest.fail "search returned nothing"
  | Some { result; _ } ->
    check_bool "no pardo in the winner" true
      (List.for_all
         (fun (l : Nest.loop) -> l.Nest.kind = Nest.Do)
         result.Framework.nest.Nest.loops)

let test_explored_counter () =
  let nest = column_major () in
  let objective = Search.cache_misses ~params:[ ("n", 16) ] () in
  match Engine.search ~beam:2 ~steps:2 ~domains:1 nest objective with
  | None -> Alcotest.fail "search returned nothing"
  | Some { stats; _ } ->
    check_bool "counter grows" true (stats.Itf_opt.Stats.nodes_explored > 10)

let test_block_moves () =
  let nest = column_major () in
  let ms = Search.moves nest ~depth:2 in
  let sizes =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Template.Block { bsize; _ } -> Expr.to_int bsize.(0)
           | _ -> None)
         ms)
  in
  Alcotest.(check (list int)) "block sizes 4 and 8" [ 4; 8 ] sizes;
  check_int "no blocks above depth 3" 0
    (List.length
       (List.filter
          (function Template.Block _ -> true | _ -> false)
          (Search.moves nest ~depth:4)))

let () =
  Alcotest.run "opt"
    [
      ( "search",
        [
          Alcotest.test_case "move generation" `Quick test_moves_generated;
          Alcotest.test_case "locality: finds interchange" `Quick
            test_search_finds_interchange_for_locality;
          Alcotest.test_case "parallelism: finds pardo" `Quick
            test_search_finds_parallelism;
          Alcotest.test_case "never worse than identity" `Quick
            test_search_never_worse_than_identity;
          Alcotest.test_case "respects legality" `Quick test_search_respects_legality;
          Alcotest.test_case "explored counter" `Quick test_explored_counter;
          Alcotest.test_case "block moves" `Quick test_block_moves;
        ] );
    ]
