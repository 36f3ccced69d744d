(* Differential tests: the compiled backend (lib/exec/compile.ml) against
   the tree-walking interpreter, which stays the semantic oracle. Random
   nests — negative steps, Min/Max bounds on outer variables, guards,
   pardo loops under adversarial orders — must produce identical array
   snapshots, trace sequences, iteration orders, ordinals, cache stats and
   parallel-time floats through both backends. *)

open Itf_ir
module Env = Itf_exec.Env
module Interp = Itf_exec.Interp
module Compile = Itf_exec.Compile
module Cache = Itf_machine.Cache
module Memsim = Itf_machine.Memsim
module Parallel = Itf_machine.Parallel

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Random nest generator                                               *)
(* ------------------------------------------------------------------ *)

let rstate = Random.State.make [| 0x5EED; 92 |]
let rint n = Random.State.int rstate n
let pick a = a.(rint (Array.length a))
let flip p = rint 100 < p

(* Affine-ish integer expression over the visible variables. *)
let rec gen_expr vars depth : Expr.t =
  if depth = 0 || flip 30 then
    if vars <> [] && flip 60 then Expr.var (pick (Array.of_list vars))
    else Expr.int (rint 9 - 4)
  else
    let a = gen_expr vars (depth - 1) in
    let b = gen_expr vars (depth - 1) in
    match rint 8 with
    | 0 -> Expr.Add (a, b)
    | 1 -> Expr.Sub (a, b)
    | 2 -> Expr.Mul (Expr.int (rint 3 + 1), a)
    | 3 -> Expr.Min (a, b)
    | 4 -> Expr.Max (a, b)
    | 5 -> Expr.Neg a
    | 6 -> Expr.Div (a, Expr.int (rint 3 + 2)) (* constant, nonzero *)
    | _ -> Expr.Mod (a, Expr.int (rint 5 + 3))

(* Array subscript: anything, folded into the declared bounds. The test
   environments declare every dimension over [-24, 24] and floor-mod with a
   positive divisor lands in [0, 18]. *)
let gen_index vars = Expr.Mod (gen_expr vars 2, Expr.int 19)

let gen_rhs vars =
  let rec go depth =
    if depth = 0 || flip 35 then
      match rint 4 with
      | 0 -> Expr.int (rint 9 - 4)
      | 1 when vars <> [] -> Expr.var (pick (Array.of_list vars))
      | 2 -> Expr.Load { array = "A"; index = [ gen_index vars ] }
      | _ -> Expr.Load { array = "B"; index = [ gen_index vars; gen_index vars ] }
    else
      let a = go (depth - 1) and b = go (depth - 1) in
      match rint 6 with
      | 0 -> Expr.Add (a, b)
      | 1 -> Expr.Sub (a, b)
      | 2 -> Expr.Mul (a, b)
      | 3 -> Expr.Min (a, b)
      | 4 -> Expr.Max (a, b)
      | _ -> Expr.Mod (a, Expr.int (rint 7 + 2))
  in
  go 2

let gen_store vars =
  if flip 50 then
    Stmt.Store ({ array = "A"; index = [ gen_index vars ] }, gen_rhs vars)
  else
    Stmt.Store
      ({ array = "B"; index = [ gen_index vars; gen_index vars ] }, gen_rhs vars)

let rels = [| Stmt.Lt; Stmt.Le; Stmt.Gt; Stmt.Ge; Stmt.Eq; Stmt.Ne |]

let gen_stmt vars =
  let s = gen_store vars in
  if flip 40 then
    let body =
      (* Occasionally a [Set] whose target is never read outside the guard:
         exercises frame-slot collection beyond [Nest.all_vars]. *)
      if flip 25 then [ Stmt.Set ("u", gen_rhs vars); s ] else [ s ]
    in
    Stmt.Guard { lhs = gen_expr vars 2; rel = pick rels; rhs = gen_expr vars 2; body }
  else s

(* One random nest: depth 1-3, steps in {1, 2, -1, -2}, bounds that may
   reference outer loop variables through Min/Max, ~1/3 pardo loops. *)
let gen_nest () =
  let depth = 1 + rint 3 in
  let names = [| "i"; "j"; "k" |] in
  let rec loops k outer =
    if k = depth then []
    else begin
      let var = names.(k) in
      let step = pick [| 1; 2; -1; -2 |] in
      let a = rint 4 and span = rint 4 in
      let lo0, hi0 = if step > 0 then (a, a + span) else (a + span, a) in
      let decorate base =
        if outer <> [] && flip 30 then
          let ov = Expr.var (pick (Array.of_list outer)) in
          if flip 50 then Expr.Min (Expr.int base, Expr.Add (ov, Expr.int (rint 3)))
          else Expr.Max (Expr.int base, Expr.Sub (ov, Expr.int (rint 3)))
        else Expr.int base
      in
      let kind = if flip 33 then Nest.Pardo else Nest.Do in
      Nest.loop ~kind ~step:(Expr.int step) var (decorate lo0) (decorate hi0)
      :: loops (k + 1) (var :: outer)
    end
  in
  let loops = loops 0 [] in
  let vars = List.map (fun (l : Nest.loop) -> l.Nest.var) loops in
  let inits = [ Stmt.Set ("t", gen_expr vars 2) ] in
  let body = List.init (1 + rint 2) (fun _ -> gen_stmt ("t" :: vars)) in
  Nest.make ~inits loops body

let has_pardo (nest : Nest.t) =
  List.exists (fun (l : Nest.loop) -> l.Nest.kind = Nest.Pardo) nest.Nest.loops

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)
(* ------------------------------------------------------------------ *)

type observation = {
  snapshot : (string * int array) list;
  trace : Env.access list;
  iterations : int array list;
  ordinals : int array list;
}

let observe_interp ~pardo_order nest =
  let env = Builders.make_env ~params:[ ("n", 4) ] nest in
  let trace = ref [] and iters = ref [] and ords = ref [] in
  Env.set_tracer env (Some (fun ev -> trace := ev :: !trace));
  Interp.run ~pardo_order
    ~on_iteration:(fun v -> iters := Array.copy v :: !iters)
    ~on_ordinals:(fun v -> ords := Array.copy v :: !ords)
    env nest;
  Env.set_tracer env None;
  {
    snapshot = Env.snapshot env;
    trace = List.rev !trace;
    iterations = List.rev !iters;
    ordinals = List.rev !ords;
  }

let observe_compiled ~pardo_order nest =
  let env = Builders.make_env ~params:[ ("n", 4) ] nest in
  let trace = ref [] and iters = ref [] and ords = ref [] in
  let c = Compile.compile ~trace:(fun ev -> trace := ev :: !trace) env nest in
  Compile.run ~pardo_order
    ~on_iteration:(fun v -> iters := Array.copy v :: !iters)
    ~on_ordinals:(fun v -> ords := Array.copy v :: !ords)
    c;
  {
    snapshot = Env.snapshot env;
    trace = List.rev !trace;
    iterations = List.rev !iters;
    ordinals = List.rev !ords;
  }

let agree ~pardo_order nest =
  let a = observe_interp ~pardo_order nest in
  let b = observe_compiled ~pardo_order nest in
  a = b

let test_random_nests () =
  for case = 1 to 200 do
    let nest = gen_nest () in
    let orders =
      if has_pardo nest then [ `Forward; `Reverse; `Shuffle 5 ] else [ `Forward ]
    in
    List.iter
      (fun order ->
        if not (agree ~pardo_order:order nest) then
          Alcotest.failf "case %d diverges (order %s):@.%a" case
            (match order with
            | `Forward -> "forward"
            | `Reverse -> "reverse"
            | `Shuffle s -> "shuffle " ^ string_of_int s)
            Nest.pp nest)
      orders
  done

let test_paper_nests () =
  List.iter
    (fun (name, nest) ->
      check_bool name true (agree ~pardo_order:`Forward nest))
    [
      ("matmul", Builders.matmul ());
      ("stencil", Builders.stencil ());
      ("triangular", Builders.triangular ());
    ]

(* Uninterpreted calls resolve through the environment's function table. *)
let test_functions () =
  let nest = Builders.sparse_matmul () in
  let funcs =
    [
      ("colstr", (function [ j ] -> 1 + ((j - 1) mod 3) | _ -> 0));
      ("rowidx", (function [ k ] -> 1 + (k mod 4) | _ -> 0));
    ]
  in
  let run via =
    let env = Builders.make_env ~funcs ~params:[ ("n", 4) ] nest in
    (match via with
    | `Interp -> Interp.run env nest
    | `Compiled -> Compile.run (Compile.compile env nest));
    Env.snapshot env
  in
  check_bool "sparse matmul snapshots" true (run `Interp = run `Compiled)

(* ------------------------------------------------------------------ *)
(* Exception agreement and compile-time reporting                      *)
(* ------------------------------------------------------------------ *)

let test_oob_agree () =
  let nest =
    Nest.make
      [ Nest.loop "i" (Expr.int 0) (Expr.int 5) ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "i") ]
  in
  let via_interp () =
    let env = Env.create () in
    Env.declare_array env "a" [ (0, 3) ];
    Interp.run env nest
  in
  let via_compiled () =
    let env = Env.create () in
    Env.declare_array env "a" [ (0, 3) ];
    Compile.run (Compile.compile env nest)
  in
  let msg = "Env: a subscript 0 = 4 out of [0, 3]" in
  Alcotest.check_raises "interp oob" (Invalid_argument msg) via_interp;
  Alcotest.check_raises "compiled oob" (Invalid_argument msg) via_compiled

let test_division_by_zero_agree () =
  let nest =
    Nest.make
      [ Nest.loop "i" (Expr.int 0) (Expr.int 2) ]
      [
        Stmt.Store
          ( { array = "a"; index = [ Expr.var "i" ] },
            Expr.Div (Expr.int 7, Expr.var "i") );
      ]
  in
  let run via =
    let env = Env.create () in
    Env.declare_array env "a" [ (0, 3) ];
    match via with
    | `Interp -> Interp.run env nest
    | `Compiled -> Compile.run (Compile.compile env nest)
  in
  Alcotest.check_raises "interp" Division_by_zero (fun () -> run `Interp);
  Alcotest.check_raises "compiled" Division_by_zero (fun () -> run `Compiled)

let test_compile_time_errors () =
  let store arr index = Stmt.Store ({ array = arr; index }, Expr.int 1) in
  let nest = Nest.make [ Nest.loop "i" Expr.zero (Expr.int 3) ] in
  (* Arity mismatches and undeclared arrays surface at [compile], before
     any iteration runs (a documented divergence from the interpreter). *)
  let env = Env.create () in
  Env.declare_array env "a" [ (0, 3); (0, 3) ];
  Alcotest.check_raises "arity at compile time"
    (Invalid_argument "Env: a expects 2 subscripts, got 1") (fun () ->
      ignore (Compile.compile env (nest [ store "a" [ Expr.var "i" ] ])));
  check_bool "undeclared at compile time" true
    (match Compile.compile env (nest [ store "zz" [ Expr.var "i" ] ]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_zero_step () =
  let nest =
    Nest.make
      [ Nest.loop ~step:Expr.zero "i" Expr.zero (Expr.int 3) ]
      [ Stmt.Store ({ array = "a"; index = [ Expr.var "i" ] }, Expr.var "i") ]
  in
  let env = Env.create () in
  Env.declare_array env "a" [ (0, 3) ];
  Alcotest.check_raises "zero step"
    (Invalid_argument "Compile: zero step in loop i") (fun () ->
      Compile.run (Compile.compile env nest))

(* Scalar parameters are re-read from the environment on each run. *)
let test_rerun_after_set_scalar () =
  let nest = Builders.matmul () in
  let env = Builders.make_env ~params:[ ("n", 3) ] nest in
  let c = Compile.compile env nest in
  Compile.run c;
  let after3 = Env.snapshot env in
  Env.set_scalar env "n" 5;
  Compile.run c;
  let after5 = Env.snapshot env in
  check_bool "n=5 run changed more state" true (after3 <> after5);
  let env' = Builders.make_env ~params:[ ("n", 3) ] nest in
  Interp.run env' nest;
  Env.set_scalar env' "n" 5;
  Interp.run env' nest;
  check_bool "matches interpreted rerun" true (Env.snapshot env' = after5)

(* ------------------------------------------------------------------ *)
(* Machine models                                                      *)
(* ------------------------------------------------------------------ *)

let cache_config = { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 }

let test_memsim_differential () =
  for _ = 1 to 40 do
    let nest = gen_nest () in
    let env_a = Builders.make_env ~params:[ ("n", 4) ] nest in
    let env_b = Builders.make_env ~params:[ ("n", 4) ] nest in
    let ra = Memsim.run cache_config env_a nest in
    let rb = Memsim.run_compiled cache_config env_b nest in
    check_bool "stats equal" true (ra.Memsim.cache = rb.Memsim.cache);
    check_bool "final arrays equal" true (Env.snapshot env_a = Env.snapshot env_b)
  done

let test_memsim_matmul_counts () =
  let nest = Builders.matmul () in
  let run via =
    let env = Builders.make_env ~params:[ ("n", 6) ] nest in
    match via with
    | `Interp -> Memsim.run cache_config env nest
    | `Compiled -> Memsim.run_compiled cache_config env nest
  in
  let a = run `Interp and b = run `Compiled in
  check_int "accesses" a.Memsim.cache.Cache.accesses b.Memsim.cache.Cache.accesses;
  check_int "misses" a.Memsim.cache.Cache.misses b.Memsim.cache.Cache.misses

(* Scratch reuse (Memsim ?cache, Search's per-domain env): repeated
   evaluations through reused scratch must be bit-identical to fresh
   allocations — the contract the search engine's hot path relies on. *)
let test_scratch_reuse () =
  let scratch = Cache.create cache_config in
  for _ = 1 to 20 do
    let nest = gen_nest () in
    let env_a = Builders.make_env ~params:[ ("n", 4) ] nest in
    let env_b = Builders.make_env ~params:[ ("n", 4) ] nest in
    (* The scratch cache arrives dirty from the previous iteration. *)
    let ra = Memsim.run_compiled ~cache:scratch cache_config env_a nest in
    let rb = Memsim.run_compiled cache_config env_b nest in
    check_bool "scratch-cache stats bit-identical" true (ra = rb);
    check_bool "final arrays equal" true
      (Env.snapshot env_a = Env.snapshot env_b)
  done;
  (match
     let nest = Builders.matmul () in
     Memsim.run_compiled
       ~cache:(Cache.create { cache_config with Cache.assoc = 1 })
       cache_config
       (Builders.make_env ~params:[ ("n", 4) ] nest)
       nest
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scratch cache geometry mismatch accepted");
  (* Objective closures reuse a per-domain env + cache across evaluations:
     scores must equal those of a freshly instantiated closure. *)
  let nest = Builders.matmul () in
  let results =
    List.filter_map
      (fun seq -> Result.to_option (Itf_core.Framework.apply nest seq))
      [ []; [ Itf_core.Template.interchange ~n:3 0 2 ] ]
  in
  check_bool "have transformed results" true (List.length results = 2);
  let reused = Itf_opt.Search.cache_misses ~params:[ ("n", 6) ] () in
  List.iter
    (fun r ->
      let fresh = Itf_opt.Search.cache_misses ~params:[ ("n", 6) ] () in
      let a = reused r in
      let a' = reused r in
      let b = fresh r in
      check_bool "reused objective bit-identical" true (a = b && a' = b))
    results

let test_parallel_identical () =
  for _ = 1 to 40 do
    let nest = gen_nest () in
    let env = Builders.make_env ~params:[ ("n", 4) ] nest in
    List.iter
      (fun procs ->
        let t = Parallel.time ~procs env nest in
        let tc = Parallel.time_compiled ~procs env nest in
        (* Accumulation order matches operation for operation: the floats
           must be bit-identical, not approximately equal. *)
        if t <> tc then
          Alcotest.failf "procs %d: time %.17g <> time_compiled %.17g" procs t tc)
      [ 1; 3 ]
  done;
  (* The closed-form innermost level on its corners: zero-trip loops,
     more processors than iterations, triangular bounds, and a spawn
     overhead that is not an integer. *)
  let open Builders in
  let v = Expr.var in
  let body = [ st "a" [ v "i"; v "j" ] Expr.(add (ld "a" [ v "i"; v "j" ]) (int 1)) ] in
  let shapes =
    [
      ( "zero-trip inner",
        [ Nest.loop "i" Expr.one (v "n"); Nest.loop "j" (v "n") (Expr.int 1) ] );
      ( "zero-trip outer",
        [ Nest.loop "i" (v "n") Expr.one; Nest.loop "j" Expr.one (v "n") ] );
      ( "triangular",
        [ Nest.loop "i" Expr.one (v "n"); Nest.loop "j" (v "i") (v "n") ] );
      ( "triangular, stepped",
        [
          Nest.loop "i" Expr.one (v "n");
          Nest.loop ~step:(Expr.int (-2)) "j" (v "n") (v "i");
        ] );
      ("one loop", [ Nest.loop "i" Expr.one (v "n") ]);
    ]
  in
  List.iter
    (fun (name, loops) ->
      List.iter
        (fun kinds ->
          let loops =
            List.map2 (fun (l : Nest.loop) kind -> { l with Nest.kind }) loops kinds
          in
          let body = if List.length loops = 1 then [ st "a" [ v "i"; v "i" ] (v "i") ] else body in
          let nest = Nest.make loops body in
          let env = Builders.make_env ~params:[ ("n", 5) ] nest in
          List.iter
            (fun (procs, spawn_overhead) ->
              let t = Parallel.time ~spawn_overhead ~procs env nest in
              let tc = Parallel.time_compiled ~spawn_overhead ~procs env nest in
              if Int64.bits_of_float t <> Int64.bits_of_float tc then
                Alcotest.failf "%s, procs %d, overhead %g: time %.17g <> time_compiled %.17g"
                  name procs spawn_overhead t tc)
            [ (1, 2.0); (3, 0.3); (7, 0.3); (64, 0.3); (64, 0.); (2, 2.0) ])
        (let n = List.length loops in
         List.init (1 lsl n) (fun mask ->
             List.init n (fun k -> if mask land (1 lsl k) <> 0 then Nest.Pardo else Nest.Do))))
    shapes;
  (* A header that reads its own loop's variable sees the value the
     previous traversal left, so the subtree's time changes from one
     outer iteration to the next and the outer level must iterate: the
     header-only simulator sums no level in closed form then. *)
  let nest =
    Nest.make
      [ Nest.loop "i" Expr.one (v "n"); Nest.loop "j" Expr.one Expr.(add (v "j") (int 2)) ]
      body
  in
  let env = Builders.make_env ~params:[ ("n", 5); ("j", 0) ] nest in
  List.iter
    (fun procs ->
      let t = Parallel.time ~procs env nest in
      Itf_exec.Env.set_scalar env "j" 0;
      let tc = Parallel.time_compiled ~procs env nest in
      if Int64.bits_of_float t <> Int64.bits_of_float tc then
        Alcotest.failf "self-reading header, procs %d: time %.17g <> time_compiled %.17g"
          procs t tc;
      Itf_exec.Env.set_scalar env "j" 0)
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Memsim.simulate: address programs and streams                       *)
(* ------------------------------------------------------------------ *)

let search_config = { Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 }

(* The environment the locality objective builds: every array declared
   with [Costmodel.default_bounds] and filled synthetically. *)
let objective_env ~params nest =
  let env = Env.create () in
  List.iter (fun (v, x) -> Env.set_scalar env v x) params;
  List.iter
    (fun (a, arity) ->
      Env.declare_array env a (Itf_opt.Costmodel.default_bounds ~params arity);
      Env.fill_synthetic (Env.array_data env a))
    (Nest.array_arities nest);
  env

(* The objective's environment plus the sparse product's access
   functions, which map into those bounds. *)
let search_env ~params nest =
  let env = objective_env ~params nest in
  Env.declare_function env "colstr" (function
    | [ j ] -> (2 * j) - 1
    | _ -> invalid_arg "colstr");
  Env.declare_function env "rowidx" (function
    | [ k ] -> (k mod 5) + 1
    | _ -> invalid_arg "rowidx");
  env

type sim_totals = { mutable entries : int; mutable fallbacks : int }

let outcome f env nest =
  match f env nest with
  | r -> Ok r.Memsim.cache
  | exception e -> Error (Printexc.to_string e)

(* [simulate] against both oracles on fresh environments: equal stats or
   the same exception, and the arrays an address program leaves alone
   (static-control) or the values run's final arrays (otherwise). *)
let check_simulate ?(totals = { entries = 0; fallbacks = 0 }) ~what mk_env nest =
  let env_s = mk_env () and env_c = mk_env () in
  let before = Env.snapshot env_s in
  let sim =
    outcome
      (fun env nest ->
        let r = Memsim.simulate search_config env nest in
        totals.entries <- totals.entries + r.Memsim.stream.Compile.entries;
        totals.fallbacks <- totals.fallbacks + r.Memsim.stream.Compile.fallbacks;
        r)
      env_s nest
  in
  let compiled = outcome (Memsim.run_compiled search_config) env_c nest in
  if sim <> compiled then
    Alcotest.failf "%s: simulate and run_compiled disagree" what;
  if outcome (Memsim.run search_config) (mk_env ()) nest <> sim then
    Alcotest.failf "%s: simulate and run disagree" what;
  let expected = if Compile.static_control nest then before else Env.snapshot env_c in
  if Result.is_ok sim && Env.snapshot env_s <> expected then
    Alcotest.failf "%s: simulate left unexpected arrays" what

let nest_files () =
  List.concat_map
    (fun dir ->
      let dir = Filename.concat ".." dir in
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".loop")
      |> List.sort compare
      |> List.map (fun f ->
             ( Filename.concat dir f,
               (Itf_lang.Parser.parse
                  (In_channel.with_open_bin (Filename.concat dir f)
                     In_channel.input_all))
                 .Itf_lang.Parser.nest )))
    [ Filename.concat "examples" "nests"; Filename.concat "bench" (Filename.concat "e2e" "nests") ]

(* Every legal candidate one and two [Search.move_set] away from each
   example and e2e nest, at the three e2e sizes. Distinct nests only:
   many sequences generate the same one. *)
let test_simulate_candidates () =
  let totals = { entries = 0; fallbacks = 0 } in
  let legal nest seq =
    match Itf_core.Framework.apply nest seq with
    | Ok r -> Some r.Itf_core.Framework.nest
    | Error _ -> None
  in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (file, root) ->
      let moves nest = Builders.moves ~depth:(Nest.depth nest) in
      let candidates =
        root
        :: List.concat_map
             (fun m1 ->
               match legal root [ m1 ] with
               | None -> []
               | Some n1 ->
                 n1
                 :: List.filter_map
                      (fun m2 -> legal root [ m1; m2 ])
                      (moves n1))
             (moves root)
      in
      let candidates =
        List.filter
          (fun c ->
            let key = Nest.to_string c in
            if Hashtbl.mem seen key then false
            else (
              Hashtbl.add seen key ();
              true))
          candidates
      in
      List.iter
        (fun n ->
          let params = [ ("n", n) ] in
          List.iter
            (fun c ->
              check_simulate ~totals
                ~what:(Printf.sprintf "%s n=%d\n%s" file n (Nest.to_string c))
                (fun () -> search_env ~params c)
                c)
            candidates)
        [ 8; 12; 16 ])
    (nest_files ());
  (* The stream plan's coverage, pinned: a plan that refuses more nests
     or entries than it did shows here, though the simulations agree. *)
  check_int "streamed entries" 428_522 totals.entries;
  check_int "fallback entries" 2_526 totals.fallbacks

let test_simulate_corpus_and_gen () =
  let dir = "corpus" in
  let corpus = { entries = 0; fallbacks = 0 } in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.iter (fun f ->
         let c = Itf_check.Repro.load (Filename.concat dir f) in
         let nests =
           c.Itf_check.Gen.nest
           :: (match Itf_core.Framework.apply c.Itf_check.Gen.nest c.Itf_check.Gen.seq with
              | Ok r -> [ r.Itf_core.Framework.nest ]
              | Error _ -> [])
         in
         List.iter
           (fun nest ->
             check_simulate ~totals:corpus ~what:f
               (fun () -> Itf_check.Oracle.make_env ~params:c.Itf_check.Gen.params nest)
               nest)
           nests);
  check_int "corpus streamed entries" 22 corpus.entries;
  check_int "corpus fallback entries" 0 corpus.fallbacks;
  let st = Random.State.make [| 25 |] in
  let totals = { entries = 0; fallbacks = 0 } in
  for k = 1 to 1000 do
    let c = Itf_check.Gen.case st in
    let nests =
      c.Itf_check.Gen.nest
      :: (match Itf_core.Framework.apply c.Itf_check.Gen.nest c.Itf_check.Gen.seq with
         | Ok r -> [ r.Itf_core.Framework.nest ]
         | Error _ -> [])
    in
    List.iter
      (fun nest ->
        check_simulate ~totals ~what:(Printf.sprintf "Gen case %d" k)
          (fun () -> Itf_check.Oracle.make_env ~params:c.Itf_check.Gen.params nest)
          nest)
      nests
  done;
  check_int "Gen streamed entries" 4_114 totals.entries;
  check_int "Gen fallback entries" 1_768 totals.fallbacks

let two_loops ?(inits = []) ?(n = 4) body =
  Nest.make ~inits
    [ Nest.loop "i" Expr.one (Expr.int n); Nest.loop "j" Expr.one (Expr.int n) ]
    body

let small_env ?(fill = fun k -> k) decls () =
  let env = Env.create () in
  List.iter
    (fun (a, bounds) ->
      Env.declare_array env a bounds;
      let d = Env.array_data env a in
      Array.iteri (fun k _ -> d.(k) <- fill k) d)
    decls;
  env

let same_exception what nest mk_env expected =
  let run f =
    match f search_config (mk_env ()) nest with
    | _ -> "no exception"
    | exception e -> Printexc.to_string e
  in
  Alcotest.(check string) (what ^ ": run_compiled") expected (run Memsim.run_compiled);
  Alcotest.(check string) (what ^ ": simulate") expected (run Memsim.simulate);
  Alcotest.(check string) (what ^ ": run") expected (run Memsim.run)

let test_simulate_constructed () =
  let open Builders in
  let i = i_ and j = j_ in
  (* An array-valued subscript: not static-control, so the values path,
     with its effect on the arrays. *)
  let indirect =
    two_loops [ st "a" [ ld "p" [ j ] ] Expr.(add (ld "a" [ i ]) (int 1)) ]
  in
  check_bool "indirect subscript is not static-control" false
    (Compile.static_control indirect);
  let mk = small_env ~fill:(fun k -> (k mod 4) + 1) [ ("a", [ (1, 4) ]); ("p", [ (1, 4) ]) ] in
  check_simulate ~what:"indirect subscript" mk indirect;
  let r = Memsim.simulate search_config (mk ()) indirect in
  check_int "no stream entries on the values path" 0 r.Memsim.stream.Compile.entries;
  check_int "no fallbacks on the values path" 0 r.Memsim.stream.Compile.fallbacks;
  (* x / a(i) over a fill holding a 0: the values path raises the same
     Division_by_zero. *)
  let divide = two_loops [ st "b" [ i; j ] Expr.(Div (var "j", ld "a" [ i ])) ] in
  check_bool "a load divisor is not static-control" false
    (Compile.static_control divide);
  same_exception "division by a loaded zero" divide
    (small_env ~fill:(fun k -> if k = 2 then 0 else k) [ ("a", [ (1, 4) ]); ("b", [ (1, 4); (1, 4) ]) ])
    "Division_by_zero";
  (* A subscript that leaves its array halfway through an entry: b(i, i +
     j) over j in 1..4 fits at i = 1, 2 and leaves [1, 6] at i = 3, j = 4.
     The first two entries stream, the third runs the closures and raises
     at the access the interpreter does. *)
  let leaves =
    two_loops [ st "b" [ i; Expr.add i j ] Expr.(add (ld "a" [ j ]) (int 1)) ]
  in
  check_bool "leaving subscript is static-control" true (Compile.static_control leaves);
  let mk = small_env [ ("a", [ (1, 4) ]); ("b", [ (1, 4); (1, 6) ]) ] in
  same_exception "subscript leaves its array" leaves mk
    (Printexc.to_string (Invalid_argument "Env: b subscript 1 = 7 out of [1, 6]"));
  (* The address program touches exactly what the values program does
     before the raise: two streamed entries, then the third entry's
     closures up to the faulting store. *)
  let touched build =
    let n = ref 0 in
    let addr = { Compile.base_of = (fun _ -> 0); elem_bytes = 8; touch = (fun _ -> incr n) } in
    let c = build addr (mk ()) leaves in
    (match Compile.run c with
    | () -> Alcotest.fail "expected the out-of-bounds store to raise"
    | exception Invalid_argument _ -> ());
    (!n, c)
  in
  let n_values, _ = touched (fun addr env nest -> Compile.compile ~addr env nest) in
  let n_stream, c =
    touched (fun addr env nest ->
        Compile.compile_addresses addr
          ~stream:(fun ~starts ~deltas:_ ~count ->
            for _ = 1 to count * Array.length starts do
              addr.Compile.touch 0
            done)
          env nest)
  in
  check_int "touches before the raise" n_values n_stream;
  check_int "streamed entries" 2 (Compile.stream_stats c).Compile.entries;
  check_int "fallback entries" 1 (Compile.stream_stats c).Compile.fallbacks;
  (* A scalar statement that is not affine in the innermost index and
     that no subscript reads: it divides by zero at j = 3 only, which a
     stream run at the first iteration of each entry would miss, so the
     nest has no plan and raises where the interpreter does. *)
  let unused =
    two_loops
      [
        Stmt.Set ("t", Expr.(Div (int 6, sub j (int 3))));
        st "b" [ i; j ] Expr.(add (ld "a" [ j ]) (int 1));
      ]
  in
  check_bool "the unused statement is static-control" true
    (Compile.static_control unused);
  same_exception "division by zero in an unread statement" unused
    (small_env [ ("a", [ (1, 4) ]); ("b", [ (1, 4); (1, 4) ]) ])
    "Division_by_zero";
  (* The same division hidden behind a zero factor, in a scalar
     statement and in a subscript: folding [0 * e] to 0 would make both
     affine and let a stream skip j = 3. *)
  let hidden = Expr.(Mul (int 0, Div (int 6, sub j (int 3)))) in
  List.iter
    (fun (what, body) ->
      let nest = two_loops body in
      check_bool (what ^ " is static-control") true (Compile.static_control nest);
      same_exception what nest
        (small_env [ ("a", [ (1, 4) ]); ("b", [ (1, 4); (1, 4) ]) ])
        "Division_by_zero")
    [
      ( "a zero factor in a statement",
        [ Stmt.Set ("t", hidden); st "b" [ i; j ] Expr.(add (ld "a" [ j ]) (int 1)) ] );
      ( "a zero factor in a subscript",
        [ st "b" [ Expr.add i hidden; j ] Expr.(add (ld "a" [ j ]) (int 1)) ] );
    ];
  (* A flattened subscript with a symbolic stride in the innermost index,
     a(i + n * j): every entry streams with the delta n. *)
  let flat = two_loops [ st "a" [ Expr.(add i (Mul (var "n", j))) ] (Expr.int 1) ] in
  let totals = { entries = 0; fallbacks = 0 } in
  check_simulate ~totals ~what:"a(i + n * j)"
    (fun () ->
      let env = small_env [ ("a", [ (1, 20) ]) ] () in
      Env.set_scalar env "n" 4;
      env)
    flat;
  check_int "a(i + n * j) streams every entry" 4 totals.entries;
  check_int "a(i + n * j) never falls back" 0 totals.fallbacks;
  (* A blocked candidate of a skewed matmul: its init j = jj - i is
     invariant in the innermost k and runs once per entry. *)
  let mm = Builders.matmul () in
  let skew = Itf_core.Template.skew ~n:3 ~src:0 ~dst:1 ~factor:1 in
  let blocked =
    (Itf_core.Framework.apply_exn mm
       [ skew; Itf_core.Template.block ~n:3 ~i:0 ~j:2 ~bsize:(Array.make 3 (Expr.int 4)) ])
      .Itf_core.Framework.nest
  in
  let inner = (List.nth blocked.Nest.loops (Nest.depth blocked - 1)).Nest.var in
  check_bool "blocked candidate has an init invariant in the innermost loop" true
    (List.exists
       (fun s ->
         match s with
         | Stmt.Set (_, rhs) ->
           (not (List.mem inner (Expr.free_vars rhs)))
           && not (match rhs with Expr.Var _ | Expr.Int _ -> true | _ -> false)
         | _ -> false)
       blocked.Nest.inits);
  List.iter
    (fun n ->
      let totals = { entries = 0; fallbacks = 0 } in
      check_simulate ~totals ~what:(Printf.sprintf "blocked skewed matmul n=%d" n)
        (fun () -> search_env ~params:[ ("n", n) ] blocked)
        blocked;
      check_bool "blocked candidate streams" true (totals.entries > 0);
      check_int "blocked candidate never falls back" 0 totals.fallbacks)
    [ 5; 8; 12 ]

(* ------------------------------------------------------------------ *)
(* Footprint certificate                                               *)
(* ------------------------------------------------------------------ *)

module Framework = Itf_core.Framework
module Metrics = Itf_obs.Metrics

(* A full simulation of a candidate in the objective's environment, as
   the objective's score: its miss count, or the exception it raised. *)
let full_score ~params nest =
  match Memsim.simulate search_config (objective_env ~params nest) nest with
  | r -> Ok (float r.Memsim.cache.Cache.misses)
  | exception e -> Error (Printexc.to_string e)

let score obj result =
  match obj result with v -> Ok v | exception e -> Error (Printexc.to_string e)

let count m name = Metrics.counter_value (Metrics.counter m name)

type cert_totals = {
  mutable roots : int;
      (** roots simulated once, for themselves: every candidate certified *)
  mutable certified : int;  (** candidates answered by a certificate *)
}

(* Every legal candidate one and two [Search.move_set] from [root], scored
   by one memo-off locality objective after the root: each certified
   score must equal a full simulation (a certificate never raises, so
   both raising is a mismatch too), and every evaluation that scores is
   either a completed run or a certified answer. *)
let check_certificate totals ~what ~params root =
  let metrics = Metrics.create () in
  let obj = Itf_opt.Search.cache_misses ~metrics ~memo:false ~params () in
  match (Framework.check_root root).Framework.outcome with
  | Error _ -> ()
  | Ok (state, r0) ->
    let root_score = score obj r0 in
    let evaluations = ref (if Result.is_ok root_score then 1 else 0) in
    if root_score <> full_score ~params root then
      Alcotest.failf "%s: the root's score is not its simulation" what;
    let check (result : Framework.result) =
      let before = count metrics "memsim.certified" in
      let s = score obj result in
      if Result.is_ok s then incr evaluations;
      if count metrics "memsim.certified" > before then begin
        totals.certified <- totals.certified + 1;
        if s <> full_score ~params result.Framework.nest then
          Alcotest.failf "%s: certified score differs from a full simulation\n%s"
            what
            (Nest.to_string result.Framework.nest)
      end
    in
    let moves (result : Framework.result) =
      Builders.moves ~depth:(Nest.depth result.Framework.nest)
    in
    List.iter
      (fun m1 ->
        match (Builders.check_extend state m1).Framework.outcome with
        | Error _ -> ()
        | Ok (s1, r1) ->
          check r1;
          List.iter
            (fun m2 ->
              match (Builders.check_extend s1 m2).Framework.outcome with
              | Error _ -> ()
              | Ok (_, r2) -> check r2)
            (moves r1))
      (moves r0);
    if Result.is_ok root_score && count metrics "memsim.runs" = 1 then
      totals.roots <- totals.roots + 1;
    check_int
      (what ^ ": runs + certified = evaluations")
      !evaluations
      (count metrics "memsim.runs" + count metrics "memsim.certified")

(* A zero-trip outer loop whose inner bound reads an array: the root
   touches nothing and evicts nothing, but once the loops are
   interchanged the bound is read. The array-free-headers rule keeps
   this root uncertified. *)
let zero_trip_bound () =
  Nest.make
    [
      Nest.loop "i" Expr.one (Expr.sub (Expr.var "n") (Expr.int 16));
      Nest.loop "j" Expr.one (Expr.Load { Expr.array = "b"; index = [ Expr.one ] });
    ]
    [
      Stmt.Store
        ( { Expr.array = "a"; index = [ Expr.var "i"; Expr.var "j" ] },
          Expr.Load { Expr.array = "b"; index = [ Expr.var "j" ] } );
    ]

(* Examples and e2e nests at five sizes, the constructed zero-trip nest,
   the corpus and 1,000 [Gen] nests. The totals are pinned: a
   certificate that applies to fewer candidates shows here. *)
let test_certificate_sweep () =
  let totals = { roots = 0; certified = 0 } in
  List.iter
    (fun (file, root) ->
      List.iter
        (fun n ->
          check_certificate totals
            ~what:(Printf.sprintf "%s n=%d" file n)
            ~params:[ ("n", n) ] root)
        [ 8; 12; 16; 24; 32 ])
    (nest_files ());
  check_certificate totals ~what:"zero-trip bound" ~params:[ ("n", 16) ]
    (zero_trip_bound ());
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.sort compare
  |> List.iter (fun f ->
         let c = Itf_check.Repro.load (Filename.concat "corpus" f) in
         check_certificate totals ~what:f ~params:c.Itf_check.Gen.params
           c.Itf_check.Gen.nest);
  let st = Random.State.make [| 7 |] in
  for k = 1 to 1000 do
    let c = Itf_check.Gen.case st in
    check_certificate totals
      ~what:(Printf.sprintf "Gen case %d" k)
      ~params:c.Itf_check.Gen.params c.Itf_check.Gen.nest
  done;
  check_int "certified roots" 951 totals.roots;
  check_int "certified candidates" 98_223 totals.certified

(* One objective, two roots: a certificate answers only its own root's
   candidates, whatever order the results arrive in. *)
let test_certificate_binds_root () =
  let parse src = (Itf_lang.Parser.parse src).Itf_lang.Parser.nest in
  let lu =
    parse
      "do k = 1, n\n  do i = k + 1, n\n    do j = k + 1, n\n      a(i, j) = a(i, j) - a(i, k) * a(k, j)\n    enddo\n  enddo\nenddo\n"
  and rows =
    parse
      "do i = 1, n\n  do j = 1, n\n    c(j, i) = c(j, i) + d(i, j)\n  enddo\nenddo\n"
  in
  let params = [ ("n", 8) ] in
  let metrics = Metrics.create () in
  let obj = Itf_opt.Search.cache_misses ~metrics ~memo:false ~params () in
  let legal root seq = Framework.apply_exn root seq in
  let lu_root = legal lu []
  and lu_cand = legal lu [ Itf_core.Template.interchange ~n:3 1 2 ] in
  let rows_root = legal rows []
  and rows_cand = legal rows [ Itf_core.Template.interchange ~n:2 0 1 ] in
  let expect what (r : Framework.result) =
    match (score obj r, full_score ~params r.Framework.nest) with
    | Ok a, Ok b -> Alcotest.(check (float 0.)) what b a
    | _ -> Alcotest.failf "%s: raised" what
  in
  expect "LU root" lu_root;
  check_int "the root is simulated" 0 (count metrics "memsim.certified");
  expect "row-sum candidate after LU's root" rows_cand;
  check_int "another root's candidate is simulated" 0
    (count metrics "memsim.certified");
  expect "LU candidate" lu_cand;
  check_int "LU's candidate is certified" 1 (count metrics "memsim.certified");
  expect "row-sum root" rows_root;
  expect "LU candidate after the row-sum root" lu_cand;
  check_int "the row-sum root's run replaced LU's certificate" 1
    (count metrics "memsim.certified");
  expect "row-sum candidate" rows_cand;
  check_int "the row-sum candidate is certified" 2
    (count metrics "memsim.certified");
  check_bool "the two roots score apart" true
    (score obj lu_cand <> score obj rows_cand)

let () =
  Alcotest.run "compile"
    [
      ( "compile",
        [
          Alcotest.test_case "200 random nests, all orders" `Quick
            test_random_nests;
          Alcotest.test_case "paper nests" `Quick test_paper_nests;
          Alcotest.test_case "uninterpreted functions" `Quick test_functions;
          Alcotest.test_case "out-of-bounds agreement" `Quick test_oob_agree;
          Alcotest.test_case "division by zero agreement" `Quick
            test_division_by_zero_agree;
          Alcotest.test_case "compile-time error reporting" `Quick
            test_compile_time_errors;
          Alcotest.test_case "zero step message" `Quick test_zero_step;
          Alcotest.test_case "rerun after set_scalar" `Quick
            test_rerun_after_set_scalar;
          Alcotest.test_case "memsim stats differential" `Quick
            test_memsim_differential;
          Alcotest.test_case "memsim matmul counts" `Quick
            test_memsim_matmul_counts;
          Alcotest.test_case "scratch reuse bit-identical" `Quick
            test_scratch_reuse;
          Alcotest.test_case "parallel time bit-identical" `Quick
            test_parallel_identical;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "constructed cases" `Quick
            test_simulate_constructed;
          Alcotest.test_case "corpus and 1000 Gen nests" `Quick
            test_simulate_corpus_and_gen;
          Alcotest.test_case "footprint certificate binds its root" `Quick
            test_certificate_binds_root;
          Alcotest.test_case "footprint certificate sweep" `Slow
            test_certificate_sweep;
          Alcotest.test_case "one- and two-move candidates" `Slow
            test_simulate_candidates;
        ] );
    ]
