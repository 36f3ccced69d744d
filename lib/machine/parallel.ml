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
  let ops = List.fold_left (fun acc s -> acc + stmt_ops s) in
  max 1 (ops (ops 0 nest.Nest.inits) nest.Nest.body)

(* Like {!Memsim.traced}: span on the caller's ambient tracer. *)
let traced f =
  let tr = Itf_obs.Tracer.ambient () in
  Itf_obs.Tracer.span tr "parsim.run" (fun () ->
      let t = f () in
      if Itf_obs.Tracer.enabled tr then
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

(* Same cost model as [time], but loop bounds are evaluated by a plan of
   the loop headers alone ({!Itf_exec.Compile.compile_headers}) over a
   slot frame instead of interpreting expressions against
   hashtable-backed scalars per iteration. The accumulation order matches
   [time] operation for operation wherever a level iterates, so the
   returned float is identical. The innermost level is closed form (when
   its header reads no stale variable, below): each
   of its iterations costs [unit_cost], an integer-valued float, and every
   sum of such floats [time] forms there is an integer well below 2^53,
   so [count *. unit_cost] is exactly [time]'s sequential sum, and
   [ceil (count / procs) *. unit_cost], the first processor's share, is
   exactly its round-robin maximum. An outer level is closed form the
   same way when no header below it reads its variable, so each of its
   iterations costs the same [x], and [x] is an integer: the unit cost and
   the spawn overhead are integers, and [x] is a sum and maximum of
   them. *)

(* [closed.(k)]: level [k] is summed in closed form. Every header must
   read only the variables of the levels enclosing it, with distinct
   loop variables: a header that reads its own or an inner variable
   sees the value an earlier traversal left, so even the innermost level
   must iterate, setting its variable as [time] does. Above the
   innermost level, [exact] must hold (integer times) and no header
   below [k] may read [k]'s variable, so that every iteration of [k]
   costs the same. *)
let closed_levels ~exact (nest : Nest.t) =
  let loops = Array.of_list nest.Nest.loops in
  let n = Array.length loops in
  let header_reads m v =
    let (l : Nest.loop) = loops.(m) in
    Expr.mentions v l.Nest.lo || Expr.mentions v l.Nest.hi
    || Expr.mentions v l.Nest.step
  in
  let rec any lo hi p = lo < hi && (p lo || any (lo + 1) hi p) in
  let scoped =
    not
      (any 0 n (fun k ->
           any 0 k (fun j -> String.equal loops.(j).Nest.var loops.(k).Nest.var)
           || any 0 (k + 1) (fun m -> header_reads m loops.(k).Nest.var)))
  in
  Array.init n (fun k ->
      scoped
      && (k = n - 1
         || exact
            && not (any (k + 1) n (fun m -> header_reads m loops.(k).Nest.var))))

(* Below 2^53 every integer-valued float product is exact. *)
let exact_limit = 9007199254740992.

let time_compiled ?(spawn_overhead = 2.0) ~procs env (nest : Nest.t) =
  if procs < 1 then invalid_arg "Parallel.time: procs < 1";
  traced @@ fun () ->
  let unit_cost = float (body_cost nest) in
  let c = Itf_exec.Compile.compile_headers env nest in
  Itf_exec.Compile.sync c;
  let depth = Itf_exec.Compile.depth c in
  let closed =
    closed_levels
      ~exact:(Float.is_integer spawn_overhead && spawn_overhead >= 0.)
      nest
  in
  let rec go level =
    if level = depth then unit_cost
    else begin
      let lo, step, count = Itf_exec.Compile.loop_bounds c level in
      let kind = Itf_exec.Compile.loop_kind c level in
      if closed.(level) && level = depth - 1 then
        match kind with
        | Nest.Do -> float count *. unit_cost
        | Nest.Pardo ->
          if count = 0 then 0.
          else
            (float ((count + procs - 1) / procs) *. unit_cost) +. spawn_overhead
      else if closed.(level) && count = 0 then 0.
      else begin
        (* A closed level's iterations all cost the first one's [x]. *)
        let x =
          if closed.(level) then begin
            Itf_exec.Compile.set_loop_var c level lo;
            go (level + 1)
          end
          else Float.nan
        in
        if closed.(level) && float count *. x < exact_limit then
          match kind with
          | Nest.Do -> float count *. x
          | Nest.Pardo ->
            (float ((count + procs - 1) / procs) *. x) +. spawn_overhead
        else
          match kind with
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
    end
  in
  go 0

let speedup ?spawn_overhead ~procs env nest =
  let t1 = time ?spawn_overhead ~procs:1 env nest in
  let tp = time ?spawn_overhead ~procs env nest in
  if tp = 0. then 1. else t1 /. tp
