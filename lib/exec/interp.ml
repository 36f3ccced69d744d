open Itf_ir

type pardo_order = [ `Forward | `Reverse | `Shuffle of int ]

(* Evaluation order is part of the observable semantics (the tracer sees
   array touches as they happen, and the cache simulator is order
   sensitive), so operands are forced left to right explicitly rather than
   left to OCaml's unspecified application order. The compiled backend
   ({!Compile}) mirrors this order exactly. *)
let rec eval env (e : Expr.t) =
  match e with
  | Int n -> n
  | Var v -> Env.get_scalar env v
  | Neg a -> -eval env a
  | Add (a, b) ->
    let x = eval env a in
    x + eval env b
  | Sub (a, b) ->
    let x = eval env a in
    x - eval env b
  | Mul (a, b) ->
    let x = eval env a in
    x * eval env b
  | Div (a, b) ->
    let x = eval env a in
    Expr.fdiv x (eval env b)
  | Mod (a, b) ->
    let x = eval env a in
    Expr.fmod x (eval env b)
  | Min (a, b) ->
    let x = eval env a in
    min x (eval env b)
  | Max (a, b) ->
    let x = eval env a in
    max x (eval env b)
  | Load { array; index } -> Env.read env array (eval_list env index)
  | Call (f, args) -> Env.call env f (eval_list env args)

(* List.map with a guaranteed left-to-right evaluation order. *)
and eval_list env = function
  | [] -> []
  | e :: rest ->
    let x = eval env e in
    x :: eval_list env rest

let rec run_stmt env (s : Stmt.t) =
  match s with
  | Stmt.Store ({ array; index }, rhs) ->
    (* Subscripts first, then the value: matches source order reading. *)
    let idx = eval_list env index in
    Env.write env array idx (eval env rhs)
  | Stmt.Set (v, rhs) -> Env.set_scalar env v (eval env rhs)
  | Stmt.Guard { lhs; rel; rhs; body } ->
    let a = eval env lhs in
    let b = eval env rhs in
    if Stmt.holds rel a b then List.iter (run_stmt env) body

(* Deterministic Fisher-Yates from a seed (independent of global Random
   state so runs are reproducible). *)
let shuffle seed arr =
  let st = Random.State.make [| seed; Array.length arr |] in
  for k = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let tmp = arr.(k) in
    arr.(k) <- arr.(j);
    arr.(j) <- tmp
  done

let loop_header env (l : Nest.loop) =
  let lo = eval env l.Nest.lo in
  let hi = eval env l.Nest.hi in
  let step = eval env l.Nest.step in
  if step = 0 then invalid_arg ("Interp: zero step in loop " ^ l.Nest.var);
  (lo, step, max 0 (Expr.fdiv (hi - lo) step + 1))

let iteration_values env (l : Nest.loop) =
  let lo, step, count = loop_header env l in
  Array.init count (fun k -> lo + (k * step))

let run ?(pardo_order = `Forward) ?on_iteration ?on_ordinals ?after_inits env
    (nest : Nest.t) =
  let loop_vars = Array.of_list (Nest.loop_vars nest) in
  let depth = List.length nest.Nest.loops in
  let ordinals = Array.make depth 0 in
  let body () =
    (match on_iteration with
    | None -> ()
    | Some f ->
      f (Array.map (fun v -> Env.get_scalar env v) loop_vars));
    (match on_ordinals with None -> () | Some f -> f (Array.copy ordinals));
    List.iter (run_stmt env) nest.Nest.inits;
    (match after_inits with None -> () | Some f -> f ());
    List.iter (run_stmt env) nest.Nest.body
  in
  let rec go level = function
    | [] -> body ()
    | (l : Nest.loop) :: rest -> (
      match (l.Nest.kind, pardo_order) with
      | Nest.Do, _ | Nest.Pardo, `Forward ->
        (* Fast path: ordinals equal positions, so no per-entry
           (value, ordinal) pairing array is materialized. *)
        let lo, step, count = loop_header env l in
        for k = 0 to count - 1 do
          Env.set_scalar env l.Nest.var (lo + (k * step));
          ordinals.(level) <- k;
          go (level + 1) rest
        done
      | Nest.Pardo, (`Reverse | `Shuffle _) ->
        (* Pair each value with its logical position in the loop's sequence,
           so ordinals are stable under pardo reordering. *)
        let values =
          Array.mapi (fun k x -> (x, k)) (iteration_values env l)
        in
        (match pardo_order with
        | `Forward -> ()
        | `Reverse ->
          let n = Array.length values in
          for k = 0 to (n / 2) - 1 do
            let tmp = values.(k) in
            values.(k) <- values.(n - 1 - k);
            values.(n - 1 - k) <- tmp
          done
        | `Shuffle seed -> shuffle seed values);
        Array.iter
          (fun (x, ord) ->
            Env.set_scalar env l.Nest.var x;
            ordinals.(level) <- ord;
            go (level + 1) rest)
          values)
  in
  go 0 nest.Nest.loops

let iteration_order ?(pardo_order = `Forward) env nest =
  let acc = ref [] in
  run ~pardo_order ~on_iteration:(fun iter -> acc := Array.copy iter :: !acc) env nest;
  List.rev !acc
