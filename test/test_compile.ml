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
    check_bool "stats equal" true (ra = rb);
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
  done

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
    ]
