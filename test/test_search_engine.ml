(* Tests for the incremental/memoized/multicore search engine (lib/opt):
   with an unbounded beam it must find the exhaustive optimum, be
   bit-identical across domain counts, answer a warm search exactly as
   a cold one, and actually avoid work. *)

open Itf_ir
module Search = Itf_opt.Search
module Engine = Itf_opt.Engine
module Framework = Itf_core.Framework
module Sequence = Itf_core.Sequence

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Interned before anything else in the process, so its id is 0: the
   disjointness test below needs a template whose id it knows. *)
let first_template =
  let t = Itf_core.Template.skew ~n:2 ~src:0 ~dst:1 ~factor:1 in
  (t, snd (Itf_core.Template.intern_id t))

let seq_testable =
  Alcotest.testable Sequence.pp (fun a b -> Sequence.compare a b = 0)

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

let stencil () =
  Nest.make
    [
      Nest.loop "i" (Expr.int 2) (Expr.var "n");
      Nest.loop "j" (Expr.int 2) (Expr.var "n");
    ]
    [
      Stmt.Store
        ( { array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
          Expr.add
            (Expr.Load
               { array = "a"; index = [ Expr.(sub (var "i") (int 1)); Expr.var "j" ] })
            (Expr.Load
               { array = "a"; index = [ Expr.var "i"; Expr.(sub (var "j") (int 1)) ] })
        );
    ]

let cases =
  lazy
    [
      ( "column-major/locality",
        column_major (),
        Search.cache_misses ~params:[ ("n", 24) ] () );
      ( "matmul/locality",
        Builders.matmul (),
        Search.cache_misses ~params:[ ("n", 12) ] () );
      ( "matmul/parallel",
        Builders.matmul (),
        Search.parallel_time ~procs:4 ~params:[ ("n", 8) ] () );
      ( "stencil/parallel",
        stencil (),
        Search.parallel_time ~procs:4 ~params:[ ("n", 8) ] () );
    ]

(* Exhaustive oracle: the minimum score over every sequence of at most
   [steps] moves from [Search.moves] whose every prefix is legal and
   scoreable — the engine only extends scored nodes, so the enumeration
   follows the same rule. Each sequence is applied from the root with
   [Framework.apply], independent of the engine's incremental prefix
   states, canonical-sequence cache and tier-0 screen. *)
let exhaustive_min ~steps nest objective =
  let vectors = Itf_dep.Analysis.vectors nest in
  let score seq =
    match Framework.apply ~vectors nest seq with
    | Error _ -> None
    | Ok result -> (
      match objective result with
      | s when Float.is_nan s -> None
      | s -> Some (s, result)
      | exception _ -> None)
  in
  let rec go seq (s, result) k =
    if k = 0 then s
    else
      List.fold_left
        (fun best t ->
          let seq = seq @ [ t ] in
          match score seq with
          | None -> best
          | Some sr -> Float.min best (go seq sr (k - 1)))
        s
        (Search.moves nest ~depth:(Nest.depth result.Framework.nest))
  in
  Option.map (fun sr -> go [] sr steps) (score [])

(* The two objectives at n = 8 on 4 processors, each with its matching
   tier-0 spec. *)
let locality, parallel =
  let objective name =
    let make ~memo =
      Result.get_ok
        (Search.of_name ~memo name ~procs:4 ~params:[ ("n", 8) ])
    in
    (name, (fun ~memo -> fst (make ~memo)), snd (make ~memo:true))
  in
  (objective "locality", objective "parallel")

let oracle_cases =
  List.concat_map
    (fun (name, nest) ->
      List.map
        (fun (obj, mk, spec) -> (name ^ "/" ^ obj, nest, mk, spec))
        [ locality; parallel ])
    [
      ("column-major", column_major ());
      ("matmul", Builders.matmul ());
      ("stencil", stencil ());
    ]

(* With a beam wider than any step, the engine — untiered, and tiered with
   an uncapped screen — must return the exhaustive minimum, a sequence
   that replays from the root to that score, and a winner equivalent to
   the source nest. The oracle scores with an unmemoized objective, so a
   stale memo entry cannot hide on both sides. *)
let test_matches_exhaustive_oracle () =
  let steps = 2 and params = [ ("n", 8) ] in
  List.iter
    (fun (label, nest, mk, spec) ->
      let expected =
        match exhaustive_min ~steps nest (mk ~memo:false) with
        | Some s -> s
        | None -> Alcotest.failf "%s: root unscoreable" label
      in
      let objective = mk ~memo:true in
      List.iter
        (fun (mode, tier0) ->
          let label = label ^ " " ^ mode in
          match
            Engine.search ~beam:100_000 ~steps ~domains:1 ?tier0 nest objective
          with
          | None -> Alcotest.failf "%s: engine returned nothing" label
          | Some o ->
            Alcotest.(check (float 0.0))
              (label ^ ": exhaustive minimum") expected o.Engine.score;
            let replayed =
              match Framework.apply nest o.Engine.sequence with
              | Ok r -> objective r
              | Error _ -> Alcotest.failf "%s: winner does not replay" label
            in
            Alcotest.(check (float 0.0))
              (label ^ ": replayed score") o.Engine.score replayed;
            check_bool (label ^ ": winner equivalent to source") true
              (Builders.equivalent ~params ~orders:[ `Forward; `Reverse ] nest
                 o.Engine.result.Framework.nest))
        [ ("untiered", None); ("tiered", Some spec) ])
    oracle_cases

(* A 2-deep nest no other test searches; [suffix] renames its arrays, so
   each suffix is a nest the process-wide memos have never seen. The
   recurrence along [j] makes some moves illegal, so rejections are
   exercised too. Renaming every array by one common suffix keeps their
   sorted order, so it changes no part of the answer. *)
let fresh_nest suffix =
  let a = "wc_a" ^ suffix and b = "wc_b" ^ suffix in
  let v = Expr.var in
  Nest.make
    [ Nest.loop "i" Expr.one (v "n"); Nest.loop "j" (Expr.int 2) (v "n") ]
    [
      Stmt.Store
        ( { array = a; index = [ v "j"; v "i" ] },
          Expr.add
            (Expr.Load
               { array = a; index = [ Expr.(sub (var "j") (int 1)); v "i" ] })
            (Expr.Load { array = b; index = [ v "j"; v "i" ] }) );
    ]

(* Everything deterministic an outcome reports, one line per item: the
   winner, every deterministic {!Stats} counter, the rejections and the
   tier-0 decisions (floats in hex, so equal means bit-identical). *)
let outcome_lines (o : Engine.outcome) =
  let seq = Format.asprintf "%a" Sequence.pp in
  let s = o.Engine.stats in
  [
    "sequence " ^ seq o.Engine.sequence;
    "canonical " ^ seq o.Engine.canonical;
    Printf.sprintf "score %h" o.Engine.score;
    Printf.sprintf
      "nodes %d duplicates %d legality_hits %d score_hits %d illegal %d \
       applications %d saved %d exact %d tier0 %d pruned %d domains %d \
       threshold %d"
      s.Itf_opt.Stats.nodes_explored s.duplicates_pruned s.legality_cache_hits
      s.score_cache_hits s.illegal s.template_applications
      s.template_applications_saved s.objective_evaluations
      s.tier0_evaluations s.tier0_pruned s.domains s.work_threshold;
  ]
  @ List.map
      (fun (r : Engine.rejection) ->
        Format.asprintf "rejected %s: %a" (seq r.candidate) Engine.pp_cause
          r.cause)
      o.Engine.rejections
  @ List.map
      (fun (d : Engine.decision) ->
        Printf.sprintf "decided %s: %h %h %s" (seq d.candidate) d.tier0_score
          d.tier0_bound
          (Engine.verdict_label d.verdict))
      o.Engine.decisions

let table name =
  match
    List.find_opt
      (fun s -> s.Itf_mat.Hashcons.name = name)
      (Itf_mat.Hashcons.stats ())
  with
  | Some s -> s
  | None -> Alcotest.failf "no %s table registered" name

let legality_hits () = (table "core.derivation").Itf_mat.Hashcons.hits

let derivation_evictions () =
  (table "core.derivation").Itf_mat.Hashcons.evictions

(* The warm set of the hot queries fits every capped table. The example
   nests of the serve benchmark's 24 hot shapes (the sparse product calls
   functions no objective can run) at its three sizes under both
   objectives, at steps 2 (the benchmark's) and 3, are searched twice in
   a fresh process: the second pass must miss no table at all, and no
   table may have evicted an entry in either pass. A key or cap change
   that pushed a warm set's fullest shard past its slice would flush
   part of it and fail here. Runs first, before any other test fills the
   process-wide tables. *)
let test_warm_set_fits () =
  let dir = Filename.concat ".." (Filename.concat "examples" "nests") in
  let nests =
    [ "figure2.loop"; "lu.loop"; "matmul.loop"; "stencil.loop" ]
    |> List.map (fun f ->
           ( f,
             (Itf_lang.Parser.parse
                (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
               .Itf_lang.Parser.nest ))
  in
  let pass () =
    List.iter
      (fun (f, nest) ->
        List.iter
          (fun objective ->
            List.iter
              (fun n ->
                let obj, spec =
                  Result.get_ok
                    (Search.of_name objective ~procs:8 ~params:[ ("n", n) ])
                in
                List.iter
                  (fun steps ->
                    match
                      Engine.search ~beam:6 ~steps ~domains:1 ~tier0:spec nest obj
                    with
                    | Some _ -> ()
                    | None -> Alcotest.failf "%s/%s: no outcome" f objective)
                  [ 2; 3 ])
              [ 8; 12; 16 ])
          [ "locality"; "parallel" ])
      nests
  in
  pass ();
  let first = Itf_mat.Hashcons.stats () in
  pass ();
  List.iter2
    (fun (a : Itf_mat.Hashcons.stats) (b : Itf_mat.Hashcons.stats) ->
      check_int (b.name ^ ": the warm pass misses nothing") a.misses b.misses;
      check_int (b.name ^ ": no evictions") 0 b.evictions)
    first (Itf_mat.Hashcons.stats ())

(* The stored legality verdicts must not change any answer: a warm
   search equals the cold one on the same nest, tiered and untiered, on
   1 and 2 domains, and so does a search whose memo entries another
   objective's frontier filled. *)
let test_warm_equals_cold () =
  let search ?tier0 ~domains (_, mk, _) nest =
    match
      Engine.search ~beam:3 ~steps:2 ~domains ~provenance:true ?tier0 nest
        (mk ~memo:true)
    with
    | Some o -> outcome_lines o
    | None -> Alcotest.fail "engine returned nothing"
  in
  let hits0 = legality_hits () in
  List.iter
    (fun ((name, _, spec) as obj) ->
      List.iter
        (fun (mode, tier0, domains) ->
          let label = Printf.sprintf "%s %s, %d domains" name mode domains in
          (* [core.derivation] is bounded: a flush during the pair may
             drop the root's entry, and the warm search then rightly
             misses. Warm must equal cold on every pair; the memo must
             be hit on a pair no flush touched, so a touched pair is
             retried on a fresh nest. *)
          let rec attempt k =
            let suffix = Printf.sprintf "_%s_%s%d" name mode domains in
            let nest =
              fresh_nest (if k = 0 then suffix else Printf.sprintf "%s_retry%d" suffix k)
            in
            let evictions = derivation_evictions () in
            let cold = search ?tier0 ~domains obj nest in
            check_bool (label ^ ": some candidate is rejected") true
              (List.exists (String.starts_with ~prefix:"rejected") cold);
            if name = "parallel" then
              check_bool (label ^ ": the winner transforms the nest") false
                (List.mem "sequence " cold);
            let hits = legality_hits () in
            let warm = search ?tier0 ~domains obj nest in
            Alcotest.(check (list string)) (label ^ ": warm == cold") cold warm;
            if derivation_evictions () = evictions then
              check_bool (label ^ ": warm search hit the legality memo") true
                (legality_hits () > hits)
            else if k < 9 then attempt (k + 1)
            else Alcotest.failf "%s: core.derivation flushed during every pair" label
          in
          attempt 0)
        [
          ("untiered", None, 1);
          ("untiered", None, 2);
          ("tiered", Some spec, 1);
          ("tiered", Some spec, 2);
        ])
    [ locality; parallel ];
  (* Cross-objective: on [x] the locality search fills the memo the
     parallel search then reads, on [y] the other way round; each warm
     answer must equal the other nest's cold one. *)
  let tiered ((_, _, spec) as obj) nest =
    search ~tier0:spec ~domains:1 obj nest
  in
  let x = fresh_nest "_x" and y = fresh_nest "_y" in
  let cold_loc = tiered locality x in
  let warm_par = tiered parallel x in
  let cold_par = tiered parallel y in
  let warm_loc = tiered locality y in
  Alcotest.(check (list string)) "parallel after locality == cold" cold_par
    warm_par;
  Alcotest.(check (list string)) "locality after parallel == cold" cold_loc
    warm_loc;
  check_bool "legality memo hits grew" true (legality_hits () > hits0)

(* Parallel evaluation must not change the answer: order-preserving merge
   plus the total candidate order make any domain count bit-identical. *)
let test_parallel_deterministic () =
  List.iter
    (fun (label, nest, objective) ->
      match
        ( Engine.search ~beam:4 ~steps:2 ~domains:1 nest objective,
          Engine.search ~beam:4 ~steps:2 ~domains:4 nest objective )
      with
      | None, None -> ()
      | Some _, None | None, Some _ ->
        Alcotest.failf "%s: domain count changed scoreability" label
      | Some seq_, Some par_ ->
        Alcotest.check seq_testable
          (label ^ ": same sequence") seq_.Engine.sequence par_.Engine.sequence;
        Alcotest.check seq_testable
          (label ^ ": same canonical") seq_.Engine.canonical
          par_.Engine.canonical;
        Alcotest.(check (float 0.0))
          (label ^ ": same score") seq_.Engine.score par_.Engine.score;
        check_bool (label ^ ": same transformed nest") true
          (compare seq_.Engine.result.Itf_core.Framework.nest
             par_.Engine.result.Itf_core.Framework.nest
          = 0))
    (Lazy.force cases)

(* A two-step search revisits transformations constantly (reversal twice is
   the identity, interchange pairs cancel, ...): the canonical-sequence
   cache must be hit and the incremental prefix states must save template
   applications relative to from-root replays. *)
let test_caches_and_savings () =
  let nest = column_major () in
  let objective = Search.cache_misses ~params:[ ("n", 24) ] () in
  let new_ =
    match Engine.search ~beam:4 ~steps:2 ~domains:1 nest objective with
    | Some o -> o
    | None -> Alcotest.fail "engine returned nothing"
  in
  let s = new_.Engine.stats in
  check_bool "legality cache hit" true (s.Itf_opt.Stats.legality_cache_hits > 0);
  check_bool "score cache hit" true (s.Itf_opt.Stats.score_cache_hits > 0);
  check_bool "saved template applications" true
    (s.Itf_opt.Stats.template_applications_saved > 0);
  check_bool "explored something" true (s.Itf_opt.Stats.nodes_explored > 10);
  (* The untiered search's screen is open: every explored candidate is a
     cache hit, illegal, or scored exactly — none is screened out, even
     with more legal candidates per step than [exact_topk]. *)
  check_int "open screen prunes nothing" 0 s.Itf_opt.Stats.tier0_pruned;
  check_int "every legal candidate scored exactly"
    s.Itf_opt.Stats.nodes_explored
    (s.Itf_opt.Stats.objective_evaluations + s.Itf_opt.Stats.score_cache_hits
   + s.Itf_opt.Stats.illegal)

(* The tier-0-only escape hatch: the estimate is the score, root
   included, so no exact simulation runs, the screen prunes nothing and
   every legal candidate survives it. The winners and scores are pinned:
   no other test turns the mode on. *)
let test_tier0_only () =
  let flat s =
    String.split_on_char '\n' s |> List.map String.trim |> String.concat " "
  in
  List.iter
    (fun (label, nest, (_, mk, spec), expected_seq, expected_score) ->
      match
        Engine.search ~steps:2 ~domains:1 ~provenance:true ~tier0:spec
          ~tier0_only:true nest (mk ~memo:true)
      with
      | None -> Alcotest.failf "%s: engine returned nothing" label
      | Some o ->
        let s = o.Engine.stats in
        Alcotest.(check string)
          (label ^ ": winner") expected_seq
          (flat (Format.asprintf "%a" Sequence.pp o.Engine.sequence));
        Alcotest.(check (float 0.0))
          (label ^ ": score") expected_score o.Engine.score;
        check_int (label ^ ": no exact evaluation") 0
          s.Itf_opt.Stats.objective_evaluations;
        check_int (label ^ ": nothing pruned") 0 s.Itf_opt.Stats.tier0_pruned;
        check_bool (label ^ ": decisions recorded") true
          (o.Engine.decisions <> []);
        check_bool (label ^ ": every candidate survives") true
          (List.for_all
             (fun (d : Engine.decision) -> d.verdict = Engine.Survived)
             o.Engine.decisions))
    [
      ( "matmul/locality",
        Builders.matmul (),
        locality,
        "1. Block(n=3, 0..2, bsize=[4 4 4])",
        16. );
      ( "matmul/parallel",
        Builders.matmul (),
        parallel,
        "1. Parallelize(n=3, parflag=[TFF]) 2. Parallelize(n=3, parflag=[FTF])",
        198. );
      ( "stencil/locality",
        stencil (),
        locality,
        "1. Unimodular(n=2, M=[1 0] [-1 1]) 2. Block(n=2, 0..0, bsize=[4])",
        0x1.2e66666666667p+3 );
      ( "stencil/parallel",
        stencil (),
        parallel,
        "1. ReversePermute(n=2, rev=[FF], perm=[1 0]) 2. Block(n=2, 0..1, \
         bsize=[8 8])",
        181.5 );
    ]

(* The domain pool is order-preserving and exception-safe. *)
let test_pool_map () =
  let pool = Itf_opt.Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Itf_opt.Pool.shutdown pool)
    (fun () ->
      let input = Array.init 100 Fun.id in
      let out = Itf_opt.Pool.map pool (fun x -> x * x) input in
      Alcotest.(check (array int))
        "order preserved"
        (Array.map (fun x -> x * x) input)
        out;
      check_int "empty input" 0 (Array.length (Itf_opt.Pool.map pool Fun.id [||]));
      match Itf_opt.Pool.map pool (fun x -> if x = 5 then failwith "boom" else x) input with
      | _ -> Alcotest.fail "exception not propagated"
      | exception Failure msg -> Alcotest.(check string) "exception" "boom" msg)

(* ------------------------------------------------------------------ *)
(* Derivation ids                                                      *)
(* ------------------------------------------------------------------ *)

module Template = Itf_core.Template
module Costmodel = Itf_opt.Costmodel

let legal = function
  | Ok r -> r
  | Error _ -> Alcotest.fail "expected a legal result"

let derivation r = (legal r).Framework.derivation

(* A recurrence along both loops: skew then interchange breaks
   ReversePermute's rectangular precondition stage by stage, so the pair
   is legal only through its reduced single Unimodular. *)
let wavefront () =
  Itf_lang.Parser.parse_nest
    "do i = 2, n - 1\n\
    \  do j = 2, n - 1\n\
    \    dv_a(i, j) = dv_a(i - 1, j) + dv_a(i, j - 1)\n\
    \  enddo\n\
     enddo\n"

let skew = Template.skew ~n:2 ~src:0 ~dst:1 ~factor:1
let interchange = Template.interchange ~n:2 0 1
let revperm = Template.reverse_permute ~rev:[| false; true |] ~perm:[| 1; 0 |]

(* Paper Figure 2(a), whose dependences the analyzer derives itself. *)
let figure2 () =
  Itf_lang.Parser.parse_nest
    "do i = 2, n - 1\n\
    \  do j = 2, n - 1\n\
    \    dv_f(i, j) = dv_g(j)\n\
    \    if dv_g(j) > 0\n\
    \      dv_g(j) = dv_f(i - 1, j + 1)\n\
    \    endif\n\
    \  enddo\n\
     enddo\n"

(* The engine's memoised checks: a root, and one template appended to a
   legal prefix. *)
let checked_root ?vectors root = (Framework.check_root ?vectors root).Framework.outcome
let checked_extend st t = (Framework.check_extend st t).Framework.outcome
let state c = fst (Result.get_ok c)
let result c = Result.map snd c

let incremental ?vectors root seq =
  List.fold_left
    (fun c t -> Result.bind c (fun (st, _) -> checked_extend st t))
    (checked_root ?vectors root) seq
  |> result

(* [apply root seq] and [check_root |> check_extend*] name their result
   alike: on a prefix legal only through its reduced sequence, and on a
   parent extended by every move from two domains at once. *)
let test_derivation_ids_agree () =
  let root = wavefront () in
  List.iter
    (fun (label, seq) ->
      check_int label
        (derivation (Framework.apply root seq))
        (derivation (incremental root seq)))
    [ ("root", []); ("skew", [ skew ]); ("skew, interchange", [ skew; interchange ]) ];
  (* Every result names its root by the root's own derivation id. *)
  let root_id = derivation (Framework.apply root []) in
  List.iter
    (fun (label, r) -> check_int label root_id (legal r).Framework.root)
    [
      ("root of the root", Framework.apply root []);
      ("root by apply", Framework.apply root [ skew; interchange ]);
      ("root by extension", incremental root [ skew; interchange ]);
    ];
  let parent = state (checked_extend (state (checked_root root)) skew) in
  let moves = Search.moves root ~depth:2 in
  let expected =
    List.map
      (fun t ->
        Result.map
          (fun r -> r.Framework.derivation)
          (Framework.apply root [ skew; t ]))
      moves
  in
  let run () =
    List.map
      (fun t ->
        Result.map
          (fun r -> r.Framework.derivation)
          (result (checked_extend parent t)))
      moves
  in
  check_bool "some extension is legal" true (List.exists Result.is_ok expected);
  List.iteri
    (fun d got ->
      List.iteri
        (fun k (e, g) ->
          match (e, g) with
          | Ok e, Ok g ->
            check_int (Printf.sprintf "domain %d, move %d" d k) e g
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "domain %d, move %d: legality differs" d k)
        (List.combine expected got))
    (List.map Domain.join (List.init 2 (fun _ -> Domain.spawn run)))

(* Results that must not share an id: another root, the same root under
   overridden vectors, and a second spelling of the same nest. *)
let distinct_results () =
  let root = wavefront () in
  let fig = figure2 () in
  [
    ("wavefront", legal (Framework.apply root []));
    ("renamed wavefront", legal (Framework.apply (fresh_nest "_dv") []));
    ("skew, interchange", legal (Framework.apply root [ skew; interchange ]));
    ( "its reduction",
      legal (Framework.apply root (Sequence.reduce [ skew; interchange ])) );
    ("figure 2 reversed", legal (Framework.apply fig [ revperm ]));
    ( "figure 2 reversed, one vector",
      legal
        (Framework.apply
           ~vectors:[ Itf_dep.Depvec.of_string "(1,-1)" ]
           fig [ revperm ]) );
  ]

let test_derivation_ids_differ () =
  let results = distinct_results () in
  let id label = (List.assoc label results).Framework.derivation in
  let nest label = (List.assoc label results).Framework.nest in
  check_bool "the two spellings generate one nest" true
    (Nest.equal (nest "skew, interchange") (nest "its reduction"));
  let ids = List.map (fun (_, r) -> r.Framework.derivation) results in
  check_int "every result has its own id" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* The vectors the analyzer would derive anyway name the same root. *)
  let fig = figure2 () in
  check_int "explicit analyzer vectors: same id" (id "figure 2 reversed")
    (derivation
       (Framework.apply ~vectors:(Itf_dep.Analysis.vectors fig) fig [ revperm ]))

(* The memos keyed on derivation ids answer each result with what an
   unmemoized evaluation of that same result computes — also for results
   that share a nest or a root with one evaluated before them. An
   objective instance serves the nests of one root, so each result gets
   its own; the memo tables behind them are process-wide. *)
let test_memoised_equals_unmemoised () =
  let params = [ ("n", 10) ] in
  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  List.iter
    (fun name ->
      let instance memo =
        match Search.of_name ~memo name ~procs:4 ~params with
        | Ok objective_and_spec -> objective_and_spec
        | Error e -> Alcotest.fail e
      in
      (* twice over: the second pass reads every memo entry back *)
      for pass = 1 to 2 do
        List.iter
          (fun (label, r) ->
            let label = Printf.sprintf "%s %s pass %d" name label pass in
            let memoised, _ = instance true and plain, _ = instance false in
            check_bool (label ^ ": exact score") true
              (same_bits (memoised r) (plain r)))
          (distinct_results ())
      done)
    [ "locality"; "parallel" ]

(* Memo keys name candidates by derivation, so a cold search interns its
   root nest and no candidate's: [ir.nest] grows by at most one entry
   (it grew by one per legal candidate, about 95, when the memos keyed
   on nest ids). *)
let test_search_interns_no_result_nest () =
  let nest =
    Itf_lang.Parser.parse_nest
      "do i = 1, n\n\
      \  do j = 1, n\n\
      \    do k = 1, n\n\
      \      A_ni(i, j) = A_ni(i, j) + B_ni(i, k) * C_ni(k, j)\n\
      \    enddo\n\
      \  enddo\n\
       enddo\n"
  in
  let objective, spec =
    Result.get_ok (Search.of_name "locality" ~procs:8 ~params:[ ("n", 16) ])
  in
  let nests () = (table "ir.nest").Itf_mat.Hashcons.size in
  let before = nests () in
  (match
     Engine.search ~beam:6 ~steps:2 ~domains:1 ~tier0:spec nest objective
   with
  | Some o ->
    check_bool "the search explored candidates" true
      (o.Engine.stats.Itf_opt.Stats.nodes_explored > 50)
  | None -> Alcotest.fail "engine returned nothing");
  let grown = nests () - before in
  check_bool
    (Printf.sprintf "ir.nest grew by %d entries, at most 1 allowed" grown)
    true (grown <= 1)

(* Root vector lists no other test uses: each names a new root, so
   applying the empty sequence to it interns one new entry in
   [core.derivation], a direct way to fill its shards. *)
let distance k = Itf_dep.Depvec.(of_list [ dist k; dist 0 ])

let fresh_vectors =
  Seq.concat_map
    (fun a -> Seq.map (fun b -> [ distance (1000 + a); distance b ]) (Seq.init 100 succ))
    (Seq.init 100 succ)

(* A state is named once, when it is made: after its entry, or its
   root's, is flushed from [core.derivation] and [apply] names the same
   candidate anew, the state's children are still keyed on the id it
   had, so they are named apart from [apply]'s. *)
let test_state_id_survives_flush () =
  let root = fresh_nest "_flush" in
  let skewed = checked_extend (state (checked_root root)) skew in
  let recorded = derivation (result skewed) in
  let flushed () = derivation (Framework.apply root [ skew ]) <> recorded in
  check_bool "apply names the resident state alike" false (flushed ());
  check_bool "interning fresh roots flushed the state's entry" true
    (Seq.exists
       (fun vectors ->
         ignore (Framework.apply ~vectors root []);
         flushed ())
       fresh_vectors);
  check_bool "extend after the flush keys on the state's id" true
    (derivation (result (checked_extend (state skewed) interchange))
    <> derivation (Framework.apply root [ skew; interchange ]))

(* Root keys and child keys are disjoint even when built from the same
   ints: untagged, a root with one empty vector, [nest id; 0], has a
   child key's shape, [derivation id; template id], and equals the key
   of a state's child by the template with id 0 when the root nest's id
   is that state's derivation id. The id counters only grow, so the
   pair is brought level by interning fresh nests or roots, and the
   template with id 0 is the one this module interns first. *)
let test_root_and_child_keys_disjoint () =
  let template, template_id = first_template in
  check_int "the first template interned has id 0" 0 template_id;
  let n = ref 0 in
  let fresh_root_nest () =
    incr n;
    let nest =
      Nest.make
        [
          Nest.loop "i" Expr.one (Expr.int (1000 + !n));
          Nest.loop "j" Expr.one (Expr.var "n");
        ]
        [
          Stmt.Store
            ({ array = "keys"; index = [ Expr.var "i"; Expr.var "j" ] }, Expr.one);
        ]
    in
    (nest, Intern.nest_id nest)
  in
  let parent_nest = wavefront () in
  let vectors = Seq.to_dispenser fresh_vectors in
  let fresh_parent () =
    let c = checked_root ~vectors:(Option.get (vectors ())) parent_nest in
    (state c, derivation (result c))
  in
  let rec level (a, ia) (b, ib) =
    if ia < ib then level (fresh_root_nest ()) (b, ib)
    else if ib < ia then level (a, ia) (fresh_parent ())
    else ((a, ia), (b, ib))
  in
  let (nest, nest_id), (parent, parent_id) =
    level (fresh_root_nest ()) (fresh_parent ())
  in
  check_int "the root's ints are the child's" nest_id parent_id;
  let root_id =
    derivation
      (result (checked_root ~vectors:[ Itf_dep.Depvec.of_list [] ] nest))
  in
  let child_id = derivation (result (checked_extend parent template)) in
  check_bool "distinct ids" true (root_id <> child_id)

(* ------------------------------------------------------------------ *)
(* Expansions                                                          *)
(* ------------------------------------------------------------------ *)

let e2e_source name =
  In_channel.with_open_bin
    (Filename.concat ".." (Filename.concat "bench/e2e/nests" (name ^ ".loop")))
    In_channel.input_all

(* [src] with every array renamed by [suffix]: the e2e nests call no
   function, so every name before a parenthesis is an array. *)
let renamed src suffix =
  Itf_lang.Parser.parse_nest
    (Str.global_replace
       (Str.regexp "\\([A-Za-z_][A-Za-z0-9_]*\\)(")
       ("\\1" ^ suffix ^ "(") src)

(* Everything an outcome reports, plus the [legality.rejections]
   counters of the registry the search alone wrote. *)
let search_lines ~steps ~objective nest =
  let metrics = Itf_obs.Metrics.create () in
  let obj, spec =
    Result.get_ok (Search.of_name objective ~procs:8 ~params:[ ("n", 16) ])
  in
  match
    Engine.search ~beam:6 ~steps ~domains:1 ~provenance:true ~metrics
      ~tier0:spec nest obj
  with
  | None -> Alcotest.fail "engine returned nothing"
  | Some o ->
    let rejections =
      match
        Option.bind
          (Itf_obs.Json.member "metrics" (Itf_obs.Metrics.dump metrics))
          Itf_obs.Json.to_list
      with
      | None -> []
      | Some entries ->
        List.filter_map
          (fun e ->
            if
              Itf_obs.Json.member "name" e
              = Some (Itf_obs.Json.String "legality.rejections")
            then Some ("counter " ^ Itf_obs.Json.to_string e)
            else None)
          entries
    in
    outcome_lines o @ rejections

let flush_salt = ref 0

(* Intern fresh root keys into [core.derivation] until it has evicted
   at least as many entries as it held and the root entry of every nest
   in [nests] was among them. *)
let flush_derivations nests =
  let root nest = derivation (Framework.apply nest []) in
  let roots = List.map root nests in
  let held = (table "core.derivation").Itf_mat.Hashcons.size in
  let evictions = derivation_evictions () in
  let filler = wavefront () in
  while
    derivation_evictions () - evictions < held
    || List.exists2 (fun nest id -> root nest = id) nests roots
  do
    for _ = 1 to 256 do
      incr flush_salt;
      ignore
        (Framework.apply
           ~vectors:[ distance (100_000 + !flush_salt); distance 0 ]
           filler [])
    done
  done

(* Expansions are memoised by parent and read back, verdicts and all:
   for every e2e nest, objective and steps 2 and 3, a cold search (on
   arrays no other test names), a warm one (which keeps its parents'
   expansions), one that reads them back and one after
   [core.derivation] was flushed report the same outcome, counters,
   rejections, decisions and rejection counters. *)
let test_cold_warm_flushed_agree () =
  List.iter
    (fun name ->
      let src = e2e_source name in
      let runs =
        List.concat_map
          (fun objective ->
            List.map
              (fun steps ->
                let label = Printf.sprintf "%s/%s steps %d" name objective steps in
                let nest =
                  renamed src (Printf.sprintf "_cwf_%s%d" objective steps)
                in
                (label, nest, fun () -> search_lines ~steps ~objective nest))
              [ 2; 3 ])
          [ "locality"; "parallel" ]
      in
      let pass () = List.map (fun (_, _, search) -> search ()) runs in
      let cold = pass () in
      let warm = pass () in
      let read_back = pass () in
      flush_derivations (List.map (fun (_, nest, _) -> nest) runs);
      let flushed = pass () in
      List.iteri
        (fun k (label, _, _) ->
          let cold = List.nth cold k in
          List.iter
            (fun (what, lines) ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s: %s == cold" label what)
                cold (List.nth lines k))
            [ ("warm", warm); ("read back", read_back); ("after a flush", flushed) ])
        runs)
    [ "figure2"; "lu"; "matmul"; "stencil" ]

(* Two domains searching one new nest at once fill the same verdicts
   (first race), then build, keep and fill the same parents' expansions
   (second race): every search reports what a later one reading the
   kept expansions does. *)
let test_concurrent_expansions_agree () =
  List.iter
    (fun round ->
      let nest = renamed (e2e_source "matmul") (Printf.sprintf "_conc%d" round) in
      let search () = search_lines ~steps:3 ~objective:"locality" nest in
      let race () = List.map Domain.join (List.init 2 (fun _ -> Domain.spawn search)) in
      let first = race () in
      let second = race () in
      let after = search () in
      List.iteri
        (fun d lines ->
          Alcotest.(check (list string))
            (Printf.sprintf "round %d, search %d" round d)
            after lines)
        (first @ second))
    [ 1; 2; 3 ]

(* A warm step reads each parent's expansion from the parent's state,
   kept since the parent's second expansion: the third steps-2
   matmul/locality search of a nest probes [core.sequence], [core.reduce] and
   [core.derivation] once each, for the root, and no table per
   candidate. *)
let test_warm_probes () =
  let obj, spec =
    Result.get_ok (Search.of_name "locality" ~procs:8 ~params:[ ("n", 16) ])
  in
  let search nest =
    ignore (Engine.search ~beam:6 ~steps:2 ~domains:1 ~tier0:spec nest obj)
  in
  let names =
    [ "core.template"; "core.sequence"; "core.reduce"; "core.derivation" ]
  in
  let probes () =
    List.map
      (fun n ->
        let t = table n in
        t.Itf_mat.Hashcons.hits + t.Itf_mat.Hashcons.misses)
      names
  in
  let evictions () =
    List.fold_left
      (fun acc s -> acc + s.Itf_mat.Hashcons.evictions)
      0 (Itf_mat.Hashcons.stats ())
  in
  (* The nest is new, so every entry its searches read is made by the
     first one; a flush during the three could drop some of them, and
     the count is then taken again on another new nest. *)
  let rec attempt k =
    let nest = renamed (e2e_source "matmul") (Printf.sprintf "_probes%d" k) in
    let e = evictions () in
    search nest;
    search nest;
    let before = probes () in
    search nest;
    let delta = List.map2 ( - ) (probes ()) before in
    if evictions () <> e && k < 5 then attempt (k + 1)
    else
      List.iter2
        (fun name (expected, got) -> check_int (name ^ " probes") expected got)
        names
        (List.combine [ 0; 1; 1; 1 ] delta)
  in
  attempt 0

(* The root's dependence analysis runs under its own span and counts
   its Fourier–Motzkin refutations: 19 on a new LU nest, whose bounds
   couple the loops, and none when the analysis is memoized. *)
let test_fm_calls_counted () =
  let nest = renamed (e2e_source "lu") "_fm" in
  let obj, spec =
    Result.get_ok (Search.of_name "parallel" ~procs:8 ~params:[ ("n", 16) ])
  in
  let search () =
    let tracer = Itf_obs.Tracer.create () and metrics = Itf_obs.Metrics.create () in
    ignore (Engine.search ~steps:1 ~domains:1 ~tracer ~metrics ~tier0:spec nest obj);
    let names =
      List.concat_map
        (fun (r : Itf_obs.Tracer.span) ->
          List.map (fun (c : Itf_obs.Tracer.span) -> c.name) r.children)
        (Itf_obs.Tracer.roots tracer)
    in
    check_bool "a dep.vectors span under the search" true (List.mem "dep.vectors" names);
    Itf_obs.Metrics.counter_value (Itf_obs.Metrics.counter metrics "dep.fm_calls")
  in
  check_int "cold: FM calls" 19 (search ());
  check_int "warm: FM calls" 0 (search ())

(* At domains 1 the phases are disjoint stretches of one search, timed
   by batch, so they cover nearly all of it: between 0.9 and 1.0 of
   [total_time_s] for every e2e nest and objective, on a new nest
   (cold) and on the fastest of five warm searches of it (a slower one
   may have lost a stretch between phases to a collection or a
   preemption). The second search, which keeps its parents'
   expansions, is neither. *)
let test_phases_add_up () =
  List.iter
    (fun name ->
      List.iter
        (fun objective ->
          let nest = renamed (e2e_source name) ("_phases_" ^ objective) in
          let obj, spec =
            Result.get_ok
              (Search.of_name objective ~procs:8 ~params:[ ("n", 16) ])
          in
          let share () =
            match Engine.search ~steps:2 ~domains:1 ~tier0:spec nest obj with
            | None -> Alcotest.fail "engine returned nothing"
            | Some o ->
              let st = o.Engine.stats in
              let total = st.Itf_opt.Stats.total_time_s in
              ( total,
                List.fold_left
                  (fun acc (_, s) -> acc +. s)
                  0. (Itf_opt.Stats.phases st)
                /. total )
          in
          let _, cold = share () in
          ignore (share ());
          let _, warm = List.fold_left min (share ()) (List.init 4 (fun _ -> share ())) in
          List.iter
            (fun (what, x) ->
              check_bool
                (Printf.sprintf "%s/%s %s: phases are %.3f of the total" name
                   objective what x)
                true
                (x >= 0.9 && x <= 1. +. 1e-9))
            [ ("cold", cold); ("warm", warm) ])
        [ "locality"; "parallel" ])
    [ "figure2"; "lu"; "matmul"; "stencil" ]

let () =
  Alcotest.run "search_engine"
    [
      ( "warm set",
        [ Alcotest.test_case "fits every cap" `Quick test_warm_set_fits ] );
      ( "engine",
        [
          Alcotest.test_case "matches exhaustive oracle" `Quick
            test_matches_exhaustive_oracle;
          Alcotest.test_case "parallel is deterministic" `Quick
            test_parallel_deterministic;
          Alcotest.test_case "caches hit, work saved" `Quick
            test_caches_and_savings;
          Alcotest.test_case "warm search equals cold" `Quick
            test_warm_equals_cold;
          Alcotest.test_case "tier-0-only search" `Quick test_tier0_only;
          Alcotest.test_case "pool map" `Quick test_pool_map;
          Alcotest.test_case "cold, warm and flushed searches agree" `Quick
            test_cold_warm_flushed_agree;
          Alcotest.test_case "concurrent expansions agree" `Quick
            test_concurrent_expansions_agree;
          Alcotest.test_case "a warm search probes no table per candidate"
            `Quick test_warm_probes;
          Alcotest.test_case "the root analysis counts its FM calls" `Quick
            test_fm_calls_counted;
          Alcotest.test_case "phases add up to the total" `Quick
            test_phases_add_up;
        ] );
      ( "derivation",
        [
          Alcotest.test_case "apply and incremental ids agree" `Quick
            test_derivation_ids_agree;
          Alcotest.test_case "distinct derivations, distinct ids" `Quick
            test_derivation_ids_differ;
          Alcotest.test_case "memoised equals unmemoised" `Quick
            test_memoised_equals_unmemoised;
          Alcotest.test_case "search interns no result nest" `Quick
            test_search_interns_no_result_nest;
          Alcotest.test_case "a state's id survives a flush" `Quick
            test_state_id_survives_flush;
          Alcotest.test_case "root and child keys are disjoint" `Quick
            test_root_and_child_keys_disjoint;
        ] );
    ]
