(* Tests for the hash-consing layer (lib/intmat/hashcons.ml,
   lib/ir/intern.ml and the per-type intern entry points):

   - canonicalization: structurally equal templates and sequences intern
     to the SAME physical value and the same dense id, however they were
     constructed; distinct ones get distinct ids. Ids are stable across
     re-interning.
   - table discipline: re-interning an already-seen corpus leaves every
     table size unchanged (no duplicates) while hit counts grow — the
     O(1) path is actually taken.
   - bounded tables: a flushed [Keyed] table never hands one id to two
     keys, even under racing domains; a key back after a flush gets a
     fresh id. Root-nest ids are structural: two spellings share one,
     and nests that differ only deep inside get two.
   - semantic transparency: [Sequence.reduce_memo] agrees with the
     structural [Sequence.reduce]; the explicit [Depvec.compare] /
     [Dir.compare] agree with the polymorphic order they replaced (the
     dedupe sort order is observable in analyzer output).
   - engine identity: a parallel search is bit-identical to a sequential
     one (winner, score, provenance), and a search over memoized
     objectives is bit-identical to one over [~memo:false] objectives —
     ids accelerate equality but never influence ordering. *)

open Itf_ir
module Intmat = Itf_mat.Intmat
module Hashcons = Itf_mat.Hashcons
module Depvec = Itf_dep.Depvec
module Dir = Itf_dep.Dir
module T = Itf_core.Template
module Sequence = Itf_core.Sequence
module Search = Itf_opt.Search
module Engine = Itf_opt.Engine
module Costmodel = Itf_opt.Costmodel
module Gen = Itf_check.Gen
module Repro = Itf_check.Repro

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let corpus_dir () =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_cases () =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.sort compare
  |> List.map (fun f -> Repro.load (Filename.concat dir f))

(* ------------------------------------------------------------------ *)
(* Canonicalization across construction orders                         *)
(* ------------------------------------------------------------------ *)

let test_intmat_canonical () =
  let a = Intmat.interchange 3 0 1 in
  let b = Intmat.mul (Intmat.interchange 3 0 1) (Intmat.identity 3) in
  check_bool "distinct physical values" false (a == b);
  check_bool "equal: two constructions" true (Intmat.equal a b);
  check_int "compare: two constructions" 0 (Intmat.compare a b);
  check_int "hash: two constructions" (Intmat.hash a) (Intmat.hash b);
  (* templates over equal matrices share one id *)
  let ta = T.unimodular a and tb = T.unimodular b in
  check_bool "templates over equal matrices physically equal" true
    (T.intern ta == T.intern tb);
  check_int "same template id" (snd (T.intern_id ta)) (snd (T.intern_id tb));
  check_bool "distinct matrices, distinct template ids" true
    (snd (T.intern_id ta) <> snd (T.intern_id (T.skew ~n:3 ~src:0 ~dst:1 ~factor:2)))

let test_ir_canonical () =
  let block e = T.block ~n:1 ~i:0 ~j:0 ~bsize:[| e |] in
  let e1 = Expr.(add (var "i") (int 1)) in
  let e2 = Expr.(add (var "i") (int 1)) in
  check_bool "fresh exprs differ physically" false (e1 == e2);
  check_int "templates over equal exprs get one id"
    (snd (T.intern_id (block e1)))
    (snd (T.intern_id (block e2)));
  check_bool "distinct exprs, distinct template ids" true
    (snd (T.intern_id (block e1))
    <> snd (T.intern_id (block Expr.(add (var "i") (int 2)))));
  let src =
    "do i = 1, n\n\
    \  do j = 1, n\n\
    \    a(i, j) = a(i, j) + b(i) * c(j)\n\
    \  enddo\n\
     enddo\n"
  in
  let n1 = Itf_lang.Parser.parse_nest src in
  let n2 = Itf_lang.Parser.parse_nest src in
  check_bool "fresh parses differ physically" false (n1 == n2);
  check_int "two parses of one source get one nest id" (Intern.nest_id n1)
    (Intern.nest_id n2);
  (* naming a nest again is a pure lookup: ids are stable *)
  let id0 = Intern.nest_id n1 in
  check_int "nest id stable across re-naming" id0 (Intern.nest_id n1)

let test_template_sequence_canonical () =
  let t1 = T.interchange ~n:3 0 2 and t2 = T.interchange ~n:3 0 2 in
  check_bool "interned templates physically equal" true
    (T.intern t1 == T.intern t2);
  check_int "same template id" (snd (T.intern_id t1)) (snd (T.intern_id t2));
  let s1 = [ T.interchange ~n:3 0 2; T.reversal ~n:3 1 ] in
  let s2 = [ T.interchange ~n:3 0 2; T.reversal ~n:3 1 ] in
  let c1, i1 = Sequence.intern_id s1 and c2, i2 = Sequence.intern_id s2 in
  check_bool "interned sequences physically equal" true (c1 == c2);
  check_int "same sequence id" i1 i2;
  check_int "empty sequence has a stable id" (snd (Sequence.intern_id []))
    (snd (Sequence.intern_id []))

(* ------------------------------------------------------------------ *)
(* Table growth under the fuzz corpus                                  *)
(* ------------------------------------------------------------------ *)

let intern_case (c : Gen.case) =
  ignore (Intern.nest_id c.Gen.nest);
  List.iter (fun t -> ignore (T.intern t)) c.Gen.seq;
  ignore (Sequence.intern_id c.Gen.seq)

let test_corpus_growth () =
  let cases = corpus_cases () in
  check_bool "corpus is non-empty" true (cases <> []);
  List.iter intern_case cases;
  let before = Hashcons.stats () in
  (* Re-interning the whole corpus must add nothing to any table and must
     take the hit path. *)
  List.iter intern_case cases;
  let after = Hashcons.stats () in
  List.iter2
    (fun (b : Hashcons.stats) (a : Hashcons.stats) ->
      check_int (a.Hashcons.name ^ ": size unchanged by re-interning")
        b.Hashcons.size a.Hashcons.size)
    before after;
  let total_hits l =
    List.fold_left (fun acc (s : Hashcons.stats) -> acc + s.Hashcons.hits) 0 l
  in
  check_bool "re-interning hits the tables" true
    (total_hits after > total_hits before)

(* ------------------------------------------------------------------ *)
(* Semantic transparency                                               *)
(* ------------------------------------------------------------------ *)

let test_reduce_memo_agrees () =
  let nest = Builders.matmul () in
  let moves = Search.moves nest ~depth:3 in
  let seqs =
    ([] :: List.map (fun t -> [ t ]) moves)
    @ List.concat_map
        (fun a -> List.map (fun b -> [ a; b ]) moves)
        (List.filteri (fun i _ -> i < 8) moves)
  in
  List.iter
    (fun seq ->
      let canon = Sequence.reduce seq in
      let canon', cid = Sequence.reduce_memo seq in
      check_int "reduce_memo canonical == reduce canonical" 0
        (Sequence.compare canon canon');
      (* the returned id really is the canonical's id *)
      check_int "reduce_memo id is the canonical's id" cid
        (snd (Sequence.intern_id canon')))
    seqs

let all_dirs = Dir.[ Zero; Pos; Neg; NonNeg; NonPos; NonZero; Any ]

let test_explicit_compare_matches_polymorphic () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_int "Dir.compare = polymorphic compare"
            (compare (Stdlib.compare a b) 0)
            (compare (Dir.compare a b) 0);
          check_bool "Dir.equal = polymorphic =" (a = b) (Dir.equal a b))
        all_dirs)
    all_dirs;
  let vecs =
    List.map Depvec.of_string
      [
        "(0,0)"; "(1,-1)"; "(+,0)"; "(0+,*)"; "(1,0,0)"; "(0,+)"; "(-,3)";
        "(0,0,+)"; "(*,*)"; "(2)"; "(+)";
      ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_int "Depvec.compare = polymorphic compare"
            (compare (Stdlib.compare a b) 0)
            (compare (Depvec.compare a b) 0);
          check_bool "Depvec.equal = polymorphic =" (a = b) (Depvec.equal a b))
        vecs)
    vecs

(* ------------------------------------------------------------------ *)
(* Multi-domain interning stress                                       *)
(* ------------------------------------------------------------------ *)

(* The sharded tables' contract under true parallelism: N domains racing
   to intern the same structures must all observe the same canonical ids
   (an id is assigned once, under the winning shard lock, and every loser
   reads it back), distinct structures must keep distinct ids, and once
   the race settles the tables are converged — re-interning the whole set
   adds nothing to any table. *)

let stress_templates () =
  List.init 64 (fun k ->
      T.block ~n:2 ~i:0 ~j:1
        ~bsize:Expr.[| add (var "b") (int k); int (k * 7) |])

let stress_nest_src =
  "do i = 1, n\n\
  \  do j = 1, n\n\
  \    a(i, j) = a(i, j) + b(j, i)\n\
  \  enddo\n\
   enddo\n"

let test_multi_domain_intern_stress () =
  let intern_all () =
    let template_ids =
      List.map (fun t -> snd (T.intern_id t)) (stress_templates ())
    in
    let nest_id = Intern.nest_id (Itf_lang.Parser.parse_nest stress_nest_src) in
    (template_ids, nest_id)
  in
  let domains = List.init 4 (fun _ -> Domain.spawn intern_all) in
  let results = List.map Domain.join domains in
  (* main domain re-interns after the join: the reference answer *)
  let ref_templates, ref_nest = intern_all () in
  List.iteri
    (fun d (template_ids, nest_id) ->
      check_bool (Printf.sprintf "domain %d: template ids agree" d) true
        (template_ids = ref_templates);
      check_int (Printf.sprintf "domain %d: nest id agrees" d) ref_nest nest_id)
    results;
  check_int "distinct templates keep distinct ids" (List.length ref_templates)
    (List.length (List.sort_uniq compare ref_templates));
  (* convergence: the racing domains left canonical tables behind — one
     entry per distinct structure, so a full re-intern adds nothing *)
  let before = Hashcons.stats () in
  ignore (intern_all ());
  let after = Hashcons.stats () in
  List.iter2
    (fun (b : Hashcons.stats) (a : Hashcons.stats) ->
      check_int (a.Hashcons.name ^ ": table size converged") b.Hashcons.size
        a.Hashcons.size)
    before after

(* ------------------------------------------------------------------ *)
(* Shared body lists intern like structural copies                      *)
(* ------------------------------------------------------------------ *)

(* Code generation rewrites loop headers and keeps the body list
   physically. A nest sharing its body physically must get the id of a
   structural copy with a body of its own, whichever body came before
   it, on any domain. *)

(* Header rewrites, as code generation makes them: the body list is kept
   physically. *)
let header_variants (nest : Nest.t) =
  [
    nest;
    { nest with Nest.loops = List.rev nest.Nest.loops };
    {
      nest with
      Nest.loops =
        List.map (fun (l : Nest.loop) -> { l with Nest.kind = Nest.Pardo }) nest.Nest.loops;
    };
  ]

let copy (nest : Nest.t) = Itf_lang.Parser.parse_nest (Nest.to_string nest)

(* Two bodies alternate; each variant is named next to its copy.
   Returns, in visiting order, the variant's id and its copy's id.
   Alcotest may only check on the main domain, so the caller compares. *)
let intern_alternating roots =
  List.concat_map
    (fun _round ->
      List.concat_map
        (fun root ->
          List.map
            (fun v -> (Intern.nest_id v, Intern.nest_id (copy v)))
            (header_variants root))
        roots)
    (List.init 20 Fun.id)

let test_body_id_reuse () =
  let roots = [ Itf_lang.Parser.parse_nest stress_nest_src; Builders.figure2 () ] in
  let check_run what visits =
    List.iter
      (fun (id, id') -> check_int (what ^ ": shared body names like its copy") id' id)
      visits
  in
  let reference = intern_alternating roots in
  check_run "main" reference;
  check_int "variants get distinct ids" 6
    (List.length (List.sort_uniq compare (List.map fst reference)));
  let domains =
    List.init 2 (fun _ -> Domain.spawn (fun () -> intern_alternating roots))
  in
  List.iteri
    (fun d visits ->
      let what = Printf.sprintf "domain %d" d in
      check_run what visits;
      check_bool (what ^ ": same ids as main") true (visits = reference))
    (List.map Domain.join domains)

(* ------------------------------------------------------------------ *)
(* Bounded interning tables                                            *)
(* ------------------------------------------------------------------ *)

(* A bounded [Keyed] table may flush a shard, but its ids come from one
   counter: no id is ever handed to two keys, a key that comes back
   after a flush gets a fresh id, and a key in the table has one id. *)

module Bounded = Hashcons.Keyed (Hashcons.Int_key)

let table_stats name =
  List.find (fun (s : Hashcons.stats) -> s.Hashcons.name = name) (Hashcons.stats ())

let intern_ids t keys = List.map (fun k -> snd (Bounded.intern t k ignore)) keys

let test_bounded_never_reuses () =
  (* One entry per shard: almost every miss flushes a shard. *)
  let t = Bounded.create ~max_size:16 "test.bounded.reuse" in
  let ids = intern_ids t (List.init 2000 Fun.id) in
  check_int "every key got its own id" 2000
    (List.length (List.sort_uniq compare ids));
  let s = table_stats "test.bounded.reuse" in
  check_bool "the table flushed" true (s.Hashcons.evictions > 0);
  check_bool "size counts resident entries" true (s.Hashcons.size <= 16);
  check_int "every entry is resident or evicted" 2000
    (s.Hashcons.size + s.Hashcons.evictions);
  (* A key interned again after a flush gets an id no key had before. *)
  let again = intern_ids t [ 0; 1; 2; 3 ] in
  List.iter2
    (fun old fresh ->
      check_bool "a key back after a flush gets a fresh id" true
        (fresh <> old && not (List.mem fresh ids)))
    [ List.nth ids 0; List.nth ids 1; List.nth ids 2; List.nth ids 3 ]
    again

let test_bounded_equal_keys () =
  let t = Bounded.create ~max_size:4096 "test.bounded.equal" in
  let keys = List.init 500 (fun k -> k * 7919) in
  let first = intern_ids t keys in
  check_bool "equal keys in the table get equal ids" true
    (first = intern_ids t keys);
  check_int "no evictions below the cap" 0
    (table_stats "test.bounded.equal").Hashcons.evictions

let test_bounded_racing_domains () =
  (* Below the cap every domain reads back the one id of each key. *)
  let t = Bounded.create ~max_size:4096 "test.bounded.race" in
  let keys = List.init 1000 Fun.id in
  let runs =
    List.map Domain.join
      (List.init 4 (fun _ -> Domain.spawn (fun () -> intern_ids t keys)))
  in
  List.iteri
    (fun d ids ->
      check_bool (Printf.sprintf "domain %d: one id per key" d) true
        (ids = List.hd runs))
    runs;
  (* Flushing under the race: an id may be stale, never shared. *)
  let t = Bounded.create ~max_size:16 "test.bounded.race.flush" in
  let runs =
    List.map Domain.join
      (List.init 4 (fun _ -> Domain.spawn (fun () -> intern_ids t keys)))
  in
  let owner = Hashtbl.create 4096 in
  List.iter
    (List.iter2
       (fun k id ->
         match Hashtbl.find_opt owner id with
         | Some k' -> check_int "an id names one key" k' k
         | None -> Hashtbl.add owner id k)
       keys)
    runs

(* Keys whose parts advance in lockstep, like a root's
   [[-1; nest id; vector id]] when nest and vector ids grow together,
   have fold hashes that step by a multiple of the shard count. The
   shard choice must still spread them: 1,000 of them fit a table
   capped at 4,096 without a flush. *)
module Lockstep = Hashcons.Keyed (Hashcons.Ints_key)

let test_lockstep_keys_spread () =
  let t = Lockstep.create ~max_size:4096 "test.bounded.lockstep" in
  for k = 0 to 999 do
    ignore (Lockstep.intern t [ -1; k + 40; k + 3 ] ignore)
  done;
  let s = table_stats "test.bounded.lockstep" in
  check_int "every key is resident" 1000 s.Hashcons.size;
  check_int "no evictions" 0 s.Hashcons.evictions

let test_nest_id_structural () =
  let a =
    Itf_lang.Parser.parse_nest
      "do i = 1, n
  do j = 1, n
    a(i, j) = a(i, j) + b(j)
  enddo
enddo
"
  in
  let b =
    Itf_lang.Parser.parse_nest
      "# the same nest, spelled differently
       do   i = 1,n
      \      do j=1, n   # inner
       a(i,j) = a(i, j)+b(j)
       enddo

       enddo
"
  in
  check_int "two spellings of one nest get one id" (Intern.nest_id a)
    (Intern.nest_id b);
  (* Eleven loops with equal headers: the nests differ only in the last
     subscript, far past the first ten nodes [Hashtbl.hash] looks at. *)
  let deep last =
    let vars = List.init 11 (Printf.sprintf "i%d") in
    Nest.make
      (List.map (fun v -> Nest.loop v Expr.one (Expr.var "n")) vars)
      [
        Stmt.Store
          ( { array = "deep"; index = List.map Expr.var vars },
            Expr.Load
              { array = "deep"; index = List.map Expr.var (List.tl vars) @ [ last ] } );
      ]
  in
  let x = deep (Expr.var "i0") and y = deep (Expr.int 1) in
  check_bool "the nest hash reads past the 10th node" true
    (Nest.hash x <> Nest.hash y);
  check_bool "nests that differ past their 10th node get distinct ids" true
    (Intern.nest_id x <> Intern.nest_id y)

(* [ir.nest] is bounded like any memo-key table: naming far more
   distinct nests than it holds flushes it, its size stays below what
   was named, and a nest named again after its shard was flushed gets
   an id no nest had before. *)
let test_nest_id_evicts () =
  let nest k =
    Nest.make
      [ Nest.loop "i" Expr.one (Expr.int (k + 1)) ]
      [ Stmt.Store ({ array = "evict"; index = [ Expr.var "i" ] }, Expr.int k) ]
  in
  let stats () = table_stats "ir.nest" in
  let before = stats () in
  let count = 4096 in
  let ids = List.init count (fun k -> Intern.nest_id (nest k)) in
  check_int "every nest got its own id" count
    (List.length (List.sort_uniq compare ids));
  let after = stats () in
  check_bool "the table flushed" true
    (after.Hashcons.evictions > before.Hashcons.evictions);
  check_bool "it holds fewer nests than were named" true
    (after.Hashcons.size < count);
  let again = Intern.nest_id (nest 0) in
  check_bool "a nest back after a flush gets a fresh id" true
    (not (List.mem again ids))

(* ------------------------------------------------------------------ *)
(* Engine identity: seq == par, memoized == unmemoized                 *)
(* ------------------------------------------------------------------ *)

let same_outcome (a : Engine.outcome) (b : Engine.outcome) =
  Sequence.compare a.Engine.canonical b.Engine.canonical = 0
  && a.Engine.score = b.Engine.score
  && List.length a.Engine.rejections = List.length b.Engine.rejections
  && List.for_all2
       (fun (x : Engine.rejection) (y : Engine.rejection) ->
         Sequence.compare x.Engine.candidate y.Engine.candidate = 0
         && Engine.cause_labels x.Engine.cause = Engine.cause_labels y.Engine.cause)
       a.Engine.rejections b.Engine.rejections
  && List.length a.Engine.decisions = List.length b.Engine.decisions
  && List.for_all2
       (fun (x : Engine.decision) (y : Engine.decision) ->
         Sequence.compare x.Engine.candidate y.Engine.candidate = 0
         && x.Engine.tier0_score = y.Engine.tier0_score
         && x.Engine.tier0_bound = y.Engine.tier0_bound
         && x.Engine.verdict = y.Engine.verdict)
       a.Engine.decisions b.Engine.decisions

let cache_cfg =
  { Itf_machine.Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 }

let tier0_locality params =
  Costmodel.Locality { config = cache_cfg; elem_bytes = 8; params }

let test_engine_par_identity () =
  let nest = Builders.matmul () in
  let params = [ ("n", 8) ] in
  let run domains =
    match
      Engine.search ~beam:4 ~steps:2 ~domains ~provenance:true
        ~tier0:(tier0_locality params) nest
        (Search.cache_misses ~params ())
    with
    | Some o -> o
    | None -> Alcotest.fail "engine returned nothing"
  in
  (* Interning and the score memo stay on: domain scheduling must not be
     able to perturb winner, score or provenance even with warm tables. *)
  check_bool "seq and 2-domain runs bit-identical" true
    (same_outcome (run 1) (run 2))

let test_engine_memo_identity () =
  List.iter
    (fun (nest, mk_obj, spec) ->
      let run obj =
        match
          Engine.search ~beam:4 ~steps:2 ~domains:1 ~provenance:true
            ~tier0:spec nest obj
        with
        | Some o -> o
        | None -> Alcotest.fail "engine returned nothing"
      in
      let memoized = run (mk_obj ~memo:true) in
      let plain = run (mk_obj ~memo:false) in
      check_bool "memoized == unmemoized (winner, score, provenance)" true
        (same_outcome memoized plain))
    [
      ( Builders.matmul (),
        (fun ~memo -> Search.cache_misses ~memo ~params:[ ("n", 8) ] ()),
        tier0_locality [ ("n", 8) ] );
      ( Builders.stencil (),
        (fun ~memo ->
          Search.parallel_time ~memo ~procs:4 ~params:[ ("n", 8) ] ()),
        Costmodel.Parallel
          { procs = 4; spawn_overhead = 2.0; params = [ ("n", 8) ] } );
    ]

let () =
  Alcotest.run "intern"
    [
      ( "intern",
        [
          Alcotest.test_case "intmat canonicalization" `Quick
            test_intmat_canonical;
          Alcotest.test_case "ir canonicalization" `Quick test_ir_canonical;
          Alcotest.test_case "template/sequence canonicalization" `Quick
            test_template_sequence_canonical;
          Alcotest.test_case "corpus: re-interning adds nothing" `Quick
            test_corpus_growth;
          Alcotest.test_case "reduce_memo == reduce" `Quick
            test_reduce_memo_agrees;
          Alcotest.test_case "explicit compares match polymorphic" `Quick
            test_explicit_compare_matches_polymorphic;
          Alcotest.test_case "body ids reused across shared bodies" `Quick
            test_body_id_reuse;
          Alcotest.test_case "multi-domain intern stress" `Quick
            test_multi_domain_intern_stress;
          Alcotest.test_case "engine: par == seq with interning" `Quick
            test_engine_par_identity;
          Alcotest.test_case "engine: memoized == unmemoized" `Quick
            test_engine_memo_identity;
          Alcotest.test_case "bounded table never reuses an id" `Quick
            test_bounded_never_reuses;
          Alcotest.test_case "bounded table: equal keys, equal ids" `Quick
            test_bounded_equal_keys;
          Alcotest.test_case "bounded table: racing domains" `Quick
            test_bounded_racing_domains;
          Alcotest.test_case "nest ids are structural" `Quick
            test_nest_id_structural;
          Alcotest.test_case "nest ids: a bounded table" `Quick
            test_nest_id_evicts;
          Alcotest.test_case "bounded table: lockstep keys spread" `Quick
            test_lockstep_keys_spread;
        ] );
    ]
