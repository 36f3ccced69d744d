open Itf_ir

let rec expr_ops (e : Expr.t) =
  match e with
  | Int _ | Var _ -> 0
  | Neg a -> 1 + expr_ops a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
    1 + expr_ops a + expr_ops b
  | Load { index; _ } -> 1 + List.fold_left (fun acc e -> acc + expr_ops e) 0 index
  | Call (_, args) -> 1 + List.fold_left (fun acc e -> acc + expr_ops e) 0 args

let rec stmt_ops = function
  | Stmt.Store ({ index; _ }, rhs) ->
    1 + expr_ops rhs + List.fold_left (fun acc e -> acc + expr_ops e) 0 index
  | Stmt.Set (_, rhs) -> 1 + expr_ops rhs
  | Stmt.Guard { lhs; rhs; body; _ } ->
    (* worst case: the guard holds and the whole body runs *)
    1 + expr_ops lhs + expr_ops rhs
    + List.fold_left (fun acc s -> acc + stmt_ops s) 0 body

let body_cost (nest : Nest.t) =
  max 1 (List.fold_left (fun acc s -> acc + stmt_ops s) 0 (nest.Nest.inits @ nest.Nest.body))

(* Like {!Memsim.traced}: span on the caller's ambient tracer. *)
let traced f =
  let tr = Itf_obs.Tracer.ambient () in
  Itf_obs.Tracer.span tr "parsim.run" (fun () ->
      let t = f () in
      Itf_obs.Tracer.add_attrs tr [ ("time", Itf_obs.Tracer.Float t) ];
      t)

let time ?(spawn_overhead = 2.0) ~procs env (nest : Nest.t) =
  if procs < 1 then invalid_arg "Parallel.time: procs < 1";
  traced @@ fun () ->
  let unit_cost = float (body_cost nest) in
  let rec go = function
    | [] -> unit_cost
    | (l : Nest.loop) :: rest ->
      let values = Itf_exec.Interp.iteration_values env l in
      let times =
        Array.map
          (fun x ->
            Itf_exec.Env.set_scalar env l.Nest.var x;
            go rest)
          values
      in
      (match l.Nest.kind with
      | Nest.Do -> Array.fold_left ( +. ) 0. times
      | Nest.Pardo ->
        (* Round-robin assignment: processor p runs iterations p, p+P...
           Only the first [min procs count] processors get work; the idle
           rest would add zeros to a max over non-negative times. *)
        let proc_time = Array.make (min procs (Array.length times)) 0. in
        Array.iteri
          (fun k t -> proc_time.(k mod procs) <- proc_time.(k mod procs) +. t)
          times;
        Array.fold_left max 0. proc_time
        +. if Array.length values > 0 then spawn_overhead else 0.)
  in
  go nest.Nest.loops

(* Same cost model as [time], but loop bounds are evaluated by compiled
   closures over a slot frame instead of interpreting expressions against
   hashtable-backed scalars per iteration. The accumulation order matches
   [time] operation for operation above the innermost level, so the
   returned float is identical. The innermost level is closed form: each
   of its iterations costs [unit_cost], an integer-valued float, and every
   sum of such floats [time] forms there is an integer well below 2^53,
   so [count *. unit_cost] is exactly [time]'s sequential sum, and
   [ceil (count / procs) *. unit_cost], the first processor's share, is
   exactly its round-robin maximum. *)
let time_compiled ?(spawn_overhead = 2.0) ~procs env (nest : Nest.t) =
  if procs < 1 then invalid_arg "Parallel.time: procs < 1";
  traced @@ fun () ->
  let unit_cost = float (body_cost nest) in
  let c = Itf_exec.Compile.compile env nest in
  Itf_exec.Compile.sync c;
  let depth = Itf_exec.Compile.depth c in
  let rec go level =
    if level = depth then unit_cost
    else begin
      let lo, step, count = Itf_exec.Compile.loop_bounds c level in
      match Itf_exec.Compile.loop_kind c level with
      | Nest.Do when level = depth - 1 -> float count *. unit_cost
      | Nest.Pardo when level = depth - 1 ->
        if count = 0 then 0.
        else (float ((count + procs - 1) / procs) *. unit_cost) +. spawn_overhead
      | Nest.Do ->
        let total = ref 0. in
        for k = 0 to count - 1 do
          Itf_exec.Compile.set_loop_var c level (lo + (k * step));
          total := !total +. go (level + 1)
        done;
        !total
      | Nest.Pardo ->
        let proc_time = Array.make (min procs count) 0. in
        for k = 0 to count - 1 do
          Itf_exec.Compile.set_loop_var c level (lo + (k * step));
          let p = k mod procs in
          proc_time.(p) <- proc_time.(p) +. go (level + 1)
        done;
        Array.fold_left max 0. proc_time
        +. if count > 0 then spawn_overhead else 0.
    end
  in
  go 0

let speedup ?spawn_overhead ~procs env nest =
  let t1 = time ?spawn_overhead ~procs:1 env nest in
  let tp = time ?spawn_overhead ~procs env nest in
  if tp = 0. then 1. else t1 /. tp
