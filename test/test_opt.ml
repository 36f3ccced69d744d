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
let column_major ?(array = "a") () =
  Nest.make
    [
      Nest.loop "i" Expr.one (Expr.var "n");
      Nest.loop "j" Expr.one (Expr.var "n");
    ]
    [
      Stmt.Store
        ( { array; index = [ Expr.var "j"; Expr.var "i" ] },
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

(* ------------------------------------------------------------------ *)
(* Simulator scratch: restored arrays, module-level cells               *)
(* ------------------------------------------------------------------ *)

(* The guard reads what the guarded store writes, and only a fresh [a]
   sends about half the iterations to [c]: an evaluation that starts from
   the arrays the previous one left behind touches [c] far less. *)
let threshold () =
  Itf_lang.Parser.parse_nest
    "do i = 1, n\n\
    \  do j = 1, n\n\
    \    if a(i, j) < 50\n\
    \      c(j, i) = 1\n\
    \      a(i, j) = a(i, j) + 60\n\
    \    endif\n\
    \  enddo\n\
     enddo\n"

(* The identity and every legal single move. *)
let legal_results nest =
  Framework.apply_exn nest []
  :: List.filter_map
       (fun t -> Result.to_option (Framework.apply nest [ t ]))
       (Search.moves nest ~depth:(Nest.depth nest))

(* One instance of each exact objective evaluates every result in turn
   on one domain: forward with the locality and parallel-time instances
   (their environments are separate, so the locality one reuses its own
   from result to result), then backward with a locality instance of
   other parameters interleaved, which takes the domain's environment
   over at every step. Every score must be the one a fresh instance
   gives: the arrays an evaluation writes are restored before the next,
   and no instance runs in another's environment. *)
let test_scratch_reuse_is_invisible () =
  List.iter
    (fun (what, nest) ->
      let locality params () = Search.cache_misses ~memo:false ~params () in
      let parallel () =
        Search.parallel_time ~memo:false ~procs:4 ~params:[ ("n", 12) ] ()
      in
      let objectives = [ locality [ ("n", 12) ]; parallel; locality [ ("n", 9) ] ] in
      let results = legal_results nest in
      check_bool (what ^ ": several legal results") true (List.length results > 5);
      let want =
        List.map (fun r -> List.map (fun fresh -> fresh () r) objectives) results
      in
      let m, p, o =
        match List.map (fun mk -> mk ()) objectives with
        | [ m; p; o ] -> (m, p, o)
        | _ -> assert false
      in
      let check_pass pass width got =
        List.iteri
          (fun k (w, g) ->
            Alcotest.(check (list (float 0.)))
              (Printf.sprintf "%s %s, result %d" what pass k)
              (List.filteri (fun i _ -> i < width) w)
              g)
          (List.combine want got)
      in
      check_pass "forward" 2 (List.map (fun r -> [ m r; p r ]) results);
      check_pass "backward" 3
        (List.rev (List.map (fun r -> [ m r; p r; o r ]) (List.rev results))))
    [
      ("figure2", Builders.figure2 ());
      ("matmul", Builders.matmul ());
      ("threshold", threshold ());
    ]

(* An objective instance per serve request must not pin its simulator
   environment once it is gone. A domain-local key per instance did:
   OCaml never frees a DLS slot, so every instance's arrays stayed
   reachable. *)
let test_scratch_does_not_leak () =
  let n = 8 and instances = 300 in
  let params = [ ("n", n) ] in
  let result = Framework.apply_exn (column_major ()) [] in
  let evaluate () =
    ignore (Search.cache_misses ~memo:false ~params () result);
    ignore (Search.parallel_time ~memo:false ~procs:4 ~params () result)
  in
  let live () =
    Gc.full_major ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  evaluate ();
  let before = live () in
  for _ = 1 to instances do
    evaluate ()
  done;
  let grown = live () - before in
  (* The leak kept both environments of every instance, each one 2-D
     array of (5m + 1)^2 entries with m = max 8 n (Costmodel.default_bounds). *)
  let side = (5 * max 8 n) + 1 in
  let leaked = instances * 2 * side * side in
  check_bool
    (Printf.sprintf "live words grew by %d, a leak would keep %d" grown leaked)
    true
    (grown < leaked / 10)

(* The parallel objective simulates one machine, whether built directly
   or by name: a result scored through both is simulated once. *)
let test_parallel_objectives_share_memo () =
  let metrics = Itf_obs.Metrics.create () in
  let params = [ ("n", 12) ] in
  let result = Framework.apply_exn (column_major ~array:"a_shared" ()) [] in
  let direct = Search.parallel_time ~metrics ~procs:4 ~params () in
  let named, _ =
    Result.get_ok (Search.of_name ~metrics "parallel" ~procs:4 ~params)
  in
  Alcotest.(check (float 0.)) "same score" (direct result) (named result);
  check_int "one parsim run" 1
    (Itf_obs.Metrics.counter_value
       (Itf_obs.Metrics.counter metrics "parsim.runs"))

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
      ( "scratch",
        [
          Alcotest.test_case "reuse is invisible" `Quick
            test_scratch_reuse_is_invisible;
          Alcotest.test_case "no per-instance leak" `Quick
            test_scratch_does_not_leak;
        ] );
      ( "objectives",
        [
          Alcotest.test_case "parallel by name shares the memo" `Quick
            test_parallel_objectives_share_memo;
        ] );
    ]
