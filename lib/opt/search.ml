open Itf_ir
module Template = Itf_core.Template
module Framework = Itf_core.Framework

type objective = Framework.result -> float

(* ------------------------------------------------------------------ *)
(* Moves                                                               *)
(* ------------------------------------------------------------------ *)

let block_sizes = [ 4; 8 ]

let moves (_ : Nest.t) ~depth =
  let n = depth in
  let interchanges =
    List.concat
      (List.init n (fun a ->
           List.filter_map
             (fun b -> if a < b then Some (Template.interchange ~n a b) else None)
             (List.init n Fun.id)))
  in
  let reversals = List.init n (fun k -> Template.reversal ~n k) in
  let skews =
    if n < 2 then []
    else
      List.concat
        (List.init (n - 1) (fun k ->
             [
               Template.skew ~n ~src:k ~dst:(k + 1) ~factor:1;
               Template.skew ~n ~src:k ~dst:(k + 1) ~factor:(-1);
             ]))
  in
  let parallelizations = List.init n (fun k -> Template.parallelize_one ~n k) in
  let blocks =
    if n > 3 then []
    else
      List.concat_map
        (fun bs ->
          List.concat
            (List.init n (fun i ->
                 List.filter_map
                   (fun j ->
                     if i <= j then
                       Some
                         (Template.block ~n ~i ~j
                            ~bsize:(Array.make (j - i + 1) (Expr.int bs)))
                     else None)
                   (List.init n Fun.id))))
        block_sizes
  in
  let coalesces = if n >= 2 then [ Template.coalesce ~n ~i:0 ~j:(n - 1) ] else [] in
  interchanges @ reversals @ skews @ parallelizations @ blocks @ coalesces

(* ------------------------------------------------------------------ *)
(* Objectives                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-domain reusable environments: the dense arrays dominate
   per-evaluation allocation. Under {!Itf_exec.Compile} the only thing
   that mutates an environment is Store statements writing array elements
   (scalar [Set]s live in the compiled frame), so re-filling the arrays
   the nest writes rebuilds the exact fresh-env state; every other array
   still holds its fill. The parallel simulator only evaluates loop
   headers, so nothing ever writes its environment and it refills
   nothing. Array declarations come from {!Costmodel.default_bounds} so
   the tier-0 cost model's layout assumptions (strides, whole-array
   footprints) match the environment the exact simulator actually runs
   in.

   The keys are module-level, one per simulator: a domain holds at most
   one environment for each, owned by the objective instance that used it
   last, and an instance that finds another owner's environment builds
   its own in its place. A key per instance would leak instead: OCaml
   never frees a DLS slot, so every instance's environment would stay
   reachable from every domain that ever evaluated it. *)
type scratch = (unit ref * Itf_exec.Env.t) option ref

let memsim_env : scratch Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let parsim_env : scratch Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let env_scratch key ~params () =
  let owner = ref () in
  fun arities ~written ->
    let cell = Domain.DLS.get key in
    match !cell with
    | Some (prev, env) when prev == owner ->
      List.iter
        (fun a -> Itf_exec.Env.fill_synthetic (Itf_exec.Env.array_data env a))
        written;
      env
    | _ ->
      let env = Itf_exec.Env.create () in
      List.iter (fun (v, x) -> Itf_exec.Env.set_scalar env v x) params;
      List.iter
        (fun (a, arity) ->
          Itf_exec.Env.declare_array env a
            (Costmodel.default_bounds ~params arity);
          Itf_exec.Env.fill_synthetic (Itf_exec.Env.array_data env a))
        arities;
      cell := Some (owner, env);
      env

(* The framework never rewrites array accesses (paper §1: bodies are kept,
   initialization statements only define scalars), so the array-arity scan
   and the set of written arrays are the same for every transformed nest
   of one search. Each objective instantiation scans once — on its first
   evaluation — and reuses the result; an [Atomic] cell keeps the memo
   safe when the engine evaluates candidates from several domains (a
   racing re-computation would store an equal value). *)
let memo_arrays () =
  let cell = Atomic.make None in
  fun nest ->
    match Atomic.get cell with
    | Some arrays -> arrays
    | None ->
      let arrays = (Nest.array_arities nest, Nest.arrays_written nest) in
      Atomic.set cell (Some arrays);
      arrays

(* The memsim cache's tag and age arrays, one per domain for every
   instance: {!Itf_machine.Memsim.run_compiled} resets it before each
   run, and an instance of another geometry replaces it. *)
let memsim_cache : Itf_machine.Cache.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scratch_cache config =
  let cell = Domain.DLS.get memsim_cache in
  match !cell with
  | Some c when Itf_machine.Cache.config_of c = config -> c
  | _ ->
    let c = Itf_machine.Cache.create config in
    cell := Some c;
    c

(* Metric updates below are atomic counter adds — commutative, so totals
   are identical whether the engine evaluates candidates sequentially or
   across domains. *)
let mcount metrics name n =
  match metrics with
  | None -> ()
  | Some m -> Itf_obs.Metrics.add (Itf_obs.Metrics.counter m name) n

(* Exact-objective memo tables, process-wide and shared by every
   instantiation. Both ready-made objectives are pure functions of
   (instantiation parameters, transformed nest): the simulated machine is
   deterministic and the synthetic environments are rebuilt identically
   per evaluation. Keying on the result's derivation id (which names the
   root, its vectors and the raw sequence, and so the nest) plus an
   instantiation fingerprint therefore returns bit-identical floats
   while skipping the simulation entirely — including across engines,
   repeated searches over the same kernel, and the {e concurrent}
   searches of different serve workers, where most candidates recur.
   The tables are sharded ({!Itf_mat.Hashcons.Memo}) with the compute
   outside any lock, so concurrent searches neither serialize on a miss
   nor corrupt the table on racing stores — whichever racer's (identical) float lands, every
   later probe replays it bit-for-bit, which is what keeps warm answers
   byte-identical to cold ones. Everything else in this module is either
   immutable or per-instantiation state, so the objectives are fully
   reentrant. *)
module OMemo = Itf_mat.Hashcons.Memo (Itf_mat.Hashcons.Ints_key)

(* Like the tier-0 memo's, each table's cap is sized to the warm set
   (DESIGN §10): its keys start with derivation ids. *)
let objective_cap = 8192

let memsim_memo : float OMemo.t =
  OMemo.create ~max_size:objective_cap "opt.obj.memsim"

let parsim_memo : float OMemo.t =
  OMemo.create ~max_size:objective_cap "opt.obj.parsim"

let params_key params =
  List.concat_map (fun (v, x) -> [ Itf_ir.Intern.str_id v; x ]) params

let float_bits x =
  let b = Int64.bits_of_float x in
  [ Int64.to_int (Int64.shift_right_logical b 32); Int64.to_int (Int64.logand b 0xFFFFFFFFL) ]

let memoized ?(memo = true) table fingerprint metrics hit_metric
    (f : Framework.result -> float) : objective =
  if not memo then f
  else fun result ->
    let computed = ref false in
    let v =
      OMemo.find_or_add table
        (result.Framework.derivation :: fingerprint)
        (fun () ->
          computed := true;
          f result)
    in
    if not !computed then mcount metrics hit_metric 1;
    v

let cache_misses ?(config = { Itf_machine.Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 })
    ?metrics ?memo ~params () : objective =
  let arrays = memo_arrays () in
  let scratch = env_scratch memsim_env ~params () in
  let run result =
    let nest = result.Framework.nest in
    let arities, written = arrays nest in
    let r =
      Itf_machine.Memsim.run_compiled ~cache:(scratch_cache config) config
        (scratch arities ~written) nest
    in
    let cache = r.Itf_machine.Memsim.cache in
    mcount metrics "memsim.runs" 1;
    mcount metrics "memsim.cache.access" cache.Itf_machine.Cache.accesses;
    mcount metrics "memsim.cache.miss" cache.Itf_machine.Cache.misses;
    float cache.Itf_machine.Cache.misses
  in
  let fingerprint =
    config.Itf_machine.Cache.size_bytes
    :: config.Itf_machine.Cache.line_bytes
    :: config.Itf_machine.Cache.assoc :: params_key params
  in
  memoized ?memo memsim_memo fingerprint metrics "memsim.memo.hits" run

let parallel_time ?spawn_overhead ?metrics ?memo ~procs ~params () : objective =
  let arrays = memo_arrays () in
  let scratch = env_scratch parsim_env ~params () in
  let run result =
    let nest = result.Framework.nest in
    let t =
      Itf_machine.Parallel.time_compiled ?spawn_overhead ~procs
        (scratch (fst (arrays nest)) ~written:[])
        nest
    in
    mcount metrics "parsim.runs" 1;
    t
  in
  let fingerprint =
    procs
    :: (match spawn_overhead with
       | None -> [ 0 ]
       | Some x -> 1 :: float_bits x)
    @ params_key params
  in
  memoized ?memo parsim_memo fingerprint metrics "parsim.memo.hits" run

(* Largest simulated processor count a front end accepts. *)
let max_procs = 1024

(* The one place an exact objective meets its tier-0 mirror, so the
   screen ranks what the simulator will measure. *)
let of_name ?metrics ?memo name ~procs ~params =
  match name with
  | "locality" ->
    let config =
      { Itf_machine.Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 }
    in
    Ok
      ( cache_misses ~config ?metrics ?memo ~params (),
        Costmodel.Locality { config; elem_bytes = 8; params } )
  | "parallel" ->
    let spawn_overhead = 2.0 in
    Ok
      ( parallel_time ~spawn_overhead ?metrics ?memo ~procs ~params (),
        Costmodel.Parallel { procs; spawn_overhead; params } )
  | _ ->
    Error (Printf.sprintf "unknown objective %S (use locality|parallel)" name)
