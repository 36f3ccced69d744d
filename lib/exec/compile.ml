open Itf_ir

type pardo_order = Interp.pardo_order

type addr = {
  base_of : string -> int;
  elem_bytes : int;
  touch : int -> unit;
}

type level = {
  kind : Nest.kind;
  var : string;
  slot : int;
  lo : unit -> int;
  hi : unit -> int;
  step : unit -> int;
}

type t = {
  env : Env.t;
  frame : int array;
  names : string array;  (** slot -> scalar name *)
  loop_slots : int array;
  levels : level array;
  body : unit -> unit;
}

let oob name k x lo hi =
  invalid_arg
    (Printf.sprintf "Env: %s subscript %d = %d out of [%d, %d]" name k x lo hi)

let compile ?trace ?addr env (nest : Nest.t) =
  (* Every scalar the nest can touch gets a frame slot: loop variables,
     symbolic parameters, statement-defined scalars — including targets of
     [Set]s nested inside guards, which [Nest.all_vars] does not list when
     they are never read. *)
  let names =
    Array.of_list
      (List.sort_uniq String.compare
         (Nest.all_vars nest
         @ List.concat_map Stmt.defined_vars (nest.Nest.inits @ nest.Nest.body)
         ))
  in
  let slots = Hashtbl.create 16 in
  Array.iteri (fun k v -> Hashtbl.replace slots v k) names;
  let frame = Array.make (max 1 (Array.length names)) 0 in
  let slot v =
    match Hashtbl.find_opt slots v with
    | Some s -> s
    | None -> invalid_arg ("Compile: unknown scalar " ^ v)
  in
  (* Per-site memory hook, resolved once at compile time: the tracer call
     and/or the cache touch with the array's base address pre-fetched — no
     per-access name resolution, no option test on the hot path. *)
  let hook array kind : (int -> unit) option =
    let tr =
      match trace with
      | None -> None
      | Some f -> Some (fun flat -> f { Env.array; flat; kind })
    in
    let ad =
      match addr with
      | None -> None
      | Some { base_of; elem_bytes; touch } ->
        let base = base_of array in
        Some (fun flat -> touch (base + (flat * elem_bytes)))
    in
    match (tr, ad) with
    | None, None -> None
    | Some t, None -> Some t
    | None, Some a -> Some a
    | Some t, Some a ->
      Some
        (fun flat ->
          t flat;
          a flat)
  in
  let rec cexpr (e : Expr.t) : unit -> int =
    match e with
    | Int n -> fun () -> n
    | Var v ->
      let s = slot v in
      fun () -> Array.unsafe_get frame s
    | Neg a ->
      let fa = cexpr a in
      fun () -> -fa ()
    | Add (a, b) ->
      let fa = cexpr a and fb = cexpr b in
      fun () ->
        let x = fa () in
        x + fb ()
    | Sub (a, b) ->
      let fa = cexpr a and fb = cexpr b in
      fun () ->
        let x = fa () in
        x - fb ()
    | Mul (a, b) ->
      let fa = cexpr a and fb = cexpr b in
      fun () ->
        let x = fa () in
        x * fb ()
    | Div (a, b) ->
      let fa = cexpr a and fb = cexpr b in
      fun () ->
        let x = fa () in
        Expr.fdiv x (fb ())
    | Mod (a, b) ->
      let fa = cexpr a and fb = cexpr b in
      fun () ->
        let x = fa () in
        Expr.fmod x (fb ())
    | Min (a, b) ->
      let fa = cexpr a and fb = cexpr b in
      fun () ->
        let x = fa () in
        min x (fb ())
    | Max (a, b) ->
      let fa = cexpr a and fb = cexpr b in
      fun () ->
        let x = fa () in
        max x (fb ())
    | Load a -> cload a
    | Call ("abs", [ a ]) ->
      let fa = cexpr a in
      fun () -> abs (fa ())
    | Call ("sgn", [ a ]) ->
      let fa = cexpr a in
      fun () -> compare (fa ()) 0
    | Call (f, args) -> (
      let fs = List.map cexpr args in
      let eval_args () = force_list fs in
      match Env.find_function env f with
      | Some fn -> fun () -> fn (eval_args ())
      | None ->
        (* Not registered yet: fall back to the env at run time, so late
           [declare_function] still works (and unknown names raise the same
           error as the interpreter). *)
        fun () -> Env.call env f (eval_args ()))
  (* Left-to-right, like Interp.eval_list. *)
  and force_list = function
    | [] -> []
    | f :: rest ->
      let x = f () in
      x :: force_list rest
  (* Flat-offset computation specialized by arity: all subscripts are
     evaluated left to right, then bounds-checked left to right (the
     interpreter's observable order), then linearized without any list
     traversal. The per-dimension checks prove [flat] is within the data
     array, so loads/stores below use unsafe accesses. *)
  and cflat name (info : Env.array_info) index : unit -> int =
    let los = info.Env.los and his = info.Env.his in
    let strides = info.Env.strides in
    let n = Array.length los in
    (match List.length index with
    | a when a <> n ->
      invalid_arg
        (Printf.sprintf "Env: %s expects %d subscripts, got %d" name n a)
    | _ -> ());
    match index with
    | [ i0 ] ->
      let f0 = cexpr i0 in
      let lo0 = los.(0) and hi0 = his.(0) in
      fun () ->
        let x0 = f0 () in
        if x0 < lo0 || x0 > hi0 then oob name 0 x0 lo0 hi0;
        x0 - lo0
    | [ i0; i1 ] ->
      let f0 = cexpr i0 and f1 = cexpr i1 in
      let lo0 = los.(0) and hi0 = his.(0) and s0 = strides.(0) in
      let lo1 = los.(1) and hi1 = his.(1) in
      fun () ->
        let x0 = f0 () in
        let x1 = f1 () in
        if x0 < lo0 || x0 > hi0 then oob name 0 x0 lo0 hi0;
        if x1 < lo1 || x1 > hi1 then oob name 1 x1 lo1 hi1;
        ((x0 - lo0) * s0) + (x1 - lo1)
    | [ i0; i1; i2 ] ->
      let f0 = cexpr i0 and f1 = cexpr i1 and f2 = cexpr i2 in
      let lo0 = los.(0) and hi0 = his.(0) and s0 = strides.(0) in
      let lo1 = los.(1) and hi1 = his.(1) and s1 = strides.(1) in
      let lo2 = los.(2) and hi2 = his.(2) in
      fun () ->
        let x0 = f0 () in
        let x1 = f1 () in
        let x2 = f2 () in
        if x0 < lo0 || x0 > hi0 then oob name 0 x0 lo0 hi0;
        if x1 < lo1 || x1 > hi1 then oob name 1 x1 lo1 hi1;
        if x2 < lo2 || x2 > hi2 then oob name 2 x2 lo2 hi2;
        ((x0 - lo0) * s0) + ((x1 - lo1) * s1) + (x2 - lo2)
    | _ ->
      let fs = Array.of_list (List.map cexpr index) in
      let buf = Array.make n 0 in
      fun () ->
        for k = 0 to n - 1 do
          buf.(k) <- (Array.unsafe_get fs k) ()
        done;
        let flat = ref 0 in
        for k = 0 to n - 1 do
          let x = buf.(k) in
          if x < los.(k) || x > his.(k) then oob name k x los.(k) his.(k);
          flat := !flat + ((x - los.(k)) * strides.(k))
        done;
        !flat
  and cload { Expr.array; index } =
    let info = Env.array_info env array in
    let data = info.Env.data in
    let flat = cflat array info index in
    match hook array Env.Read with
    | None -> fun () -> Array.unsafe_get data (flat ())
    | Some h ->
      fun () ->
        let f = flat () in
        h f;
        Array.unsafe_get data f
  in
  (* A store evaluates subscripts, then the right-hand side, and only then
     bounds-checks and writes — the interpreter's order ([Env.write] checks
     after [eval rhs] has run). *)
  let cstore { Expr.array; index } rhs =
    let info = Env.array_info env array in
    let data = info.Env.data in
    let los = info.Env.los and his = info.Env.his in
    let strides = info.Env.strides in
    let n = Array.length los in
    (match List.length index with
    | a when a <> n ->
      invalid_arg
        (Printf.sprintf "Env: %s expects %d subscripts, got %d" array n a)
    | _ -> ());
    let frhs = cexpr rhs in
    let finish =
      match hook array Env.Write with
      | None -> fun flat v -> Array.unsafe_set data flat v
      | Some h ->
        fun flat v ->
          h flat;
          Array.unsafe_set data flat v
    in
    match index with
    | [ i0 ] ->
      let f0 = cexpr i0 in
      let lo0 = los.(0) and hi0 = his.(0) in
      fun () ->
        let x0 = f0 () in
        let v = frhs () in
        if x0 < lo0 || x0 > hi0 then oob array 0 x0 lo0 hi0;
        finish (x0 - lo0) v
    | [ i0; i1 ] ->
      let f0 = cexpr i0 and f1 = cexpr i1 in
      let lo0 = los.(0) and hi0 = his.(0) and s0 = strides.(0) in
      let lo1 = los.(1) and hi1 = his.(1) in
      fun () ->
        let x0 = f0 () in
        let x1 = f1 () in
        let v = frhs () in
        if x0 < lo0 || x0 > hi0 then oob array 0 x0 lo0 hi0;
        if x1 < lo1 || x1 > hi1 then oob array 1 x1 lo1 hi1;
        finish (((x0 - lo0) * s0) + (x1 - lo1)) v
    | [ i0; i1; i2 ] ->
      let f0 = cexpr i0 and f1 = cexpr i1 and f2 = cexpr i2 in
      let lo0 = los.(0) and hi0 = his.(0) and s0 = strides.(0) in
      let lo1 = los.(1) and hi1 = his.(1) and s1 = strides.(1) in
      let lo2 = los.(2) and hi2 = his.(2) in
      fun () ->
        let x0 = f0 () in
        let x1 = f1 () in
        let x2 = f2 () in
        let v = frhs () in
        if x0 < lo0 || x0 > hi0 then oob array 0 x0 lo0 hi0;
        if x1 < lo1 || x1 > hi1 then oob array 1 x1 lo1 hi1;
        if x2 < lo2 || x2 > hi2 then oob array 2 x2 lo2 hi2;
        finish (((x0 - lo0) * s0) + ((x1 - lo1) * s1) + (x2 - lo2)) v
    | _ ->
      let fs = Array.of_list (List.map cexpr index) in
      let buf = Array.make n 0 in
      fun () ->
        for k = 0 to n - 1 do
          buf.(k) <- (Array.unsafe_get fs k) ()
        done;
        let v = frhs () in
        let flat = ref 0 in
        for k = 0 to n - 1 do
          let x = buf.(k) in
          if x < los.(k) || x > his.(k) then oob array k x los.(k) his.(k);
          flat := !flat + ((x - los.(k)) * strides.(k))
        done;
        finish !flat v
  in
  let rec cstmt (s : Stmt.t) : unit -> unit =
    match s with
    | Stmt.Store (a, rhs) -> cstore a rhs
    | Stmt.Set (v, rhs) ->
      let s = slot v in
      let f = cexpr rhs in
      fun () -> Array.unsafe_set frame s (f ())
    | Stmt.Guard { lhs; rel; rhs; body } ->
      let fl = cexpr lhs and fr = cexpr rhs in
      let fb = Array.of_list (List.map cstmt body) in
      let nb = Array.length fb in
      let test : int -> int -> bool =
        match rel with
        | Stmt.Lt -> fun a b -> a < b
        | Stmt.Le -> fun a b -> a <= b
        | Stmt.Gt -> fun a b -> a > b
        | Stmt.Ge -> fun a b -> a >= b
        | Stmt.Eq -> fun a b -> a = b
        | Stmt.Ne -> fun a b -> a <> b
      in
      fun () ->
        let a = fl () in
        let b = fr () in
        if test a b then
          for k = 0 to nb - 1 do
            (Array.unsafe_get fb k) ()
          done
  in
  let stmts =
    Array.of_list (List.map cstmt (nest.Nest.inits @ nest.Nest.body))
  in
  let ns = Array.length stmts in
  let body () =
    for k = 0 to ns - 1 do
      (Array.unsafe_get stmts k) ()
    done
  in
  let levels =
    Array.of_list
      (List.map
         (fun (l : Nest.loop) ->
           {
             kind = l.Nest.kind;
             var = l.Nest.var;
             slot = slot l.Nest.var;
             lo = cexpr l.Nest.lo;
             hi = cexpr l.Nest.hi;
             step = cexpr l.Nest.step;
           })
         nest.Nest.loops)
  in
  let loop_slots =
    Array.map (fun (lv : level) -> lv.slot) levels
  in
  { env; frame; names; loop_slots; levels; body }

let sync t =
  Array.iteri
    (fun k name ->
      match Env.find_scalar t.env name with
      | Some x -> t.frame.(k) <- x
      | None -> t.frame.(k) <- 0)
    t.names

let header (lv : level) =
  let lo = lv.lo () in
  let hi = lv.hi () in
  let step = lv.step () in
  if step = 0 then invalid_arg ("Compile: zero step in loop " ^ lv.var);
  (lo, step, max 0 (Expr.fdiv (hi - lo) step + 1))

let depth t = Array.length t.levels

let loop_kind t k = t.levels.(k).kind

let loop_bounds t k = header t.levels.(k)

let set_loop_var t k x = t.frame.(t.levels.(k).slot) <- x

let run ?(pardo_order = `Forward) ?on_iteration ?on_ordinals t =
  sync t;
  let depth = Array.length t.levels in
  let frame = t.frame in
  let ordinals = Array.make depth 0 in
  let body =
    match (on_iteration, on_ordinals) with
    | None, None -> t.body
    | _ ->
      fun () ->
        (match on_iteration with
        | None -> ()
        | Some f ->
          f (Array.map (fun s -> frame.(s)) t.loop_slots));
        (match on_ordinals with
        | None -> ()
        | Some f -> f (Array.copy ordinals));
        t.body ()
  in
  let track_ordinals = on_ordinals <> None in
  (* Build the loop runner innermost-out once per run; the per-iteration
     work is a slot write plus a direct closure call. *)
  let rec go level : unit -> unit =
    if level = depth then body
    else
      let lv = t.levels.(level) in
      let inner = go (level + 1) in
      let s = lv.slot in
      match (lv.kind, pardo_order) with
      | Nest.Do, _ | Nest.Pardo, `Forward ->
        if track_ordinals then
          fun () ->
            let lo, step, count = header lv in
            for k = 0 to count - 1 do
              Array.unsafe_set frame s (lo + (k * step));
              ordinals.(level) <- k;
              inner ()
            done
        else
          fun () ->
            let lo, step, count = header lv in
            for k = 0 to count - 1 do
              Array.unsafe_set frame s (lo + (k * step));
              inner ()
            done
      | Nest.Pardo, (`Reverse | `Shuffle _) ->
        fun () ->
          let lo, step, count = header lv in
          let pairs = Array.init count (fun k -> (lo + (k * step), k)) in
          (match pardo_order with
          | `Forward -> ()
          | `Reverse ->
            for k = 0 to (count / 2) - 1 do
              let tmp = pairs.(k) in
              pairs.(k) <- pairs.(count - 1 - k);
              pairs.(count - 1 - k) <- tmp
            done
          | `Shuffle seed -> Interp.shuffle seed pairs);
          Array.iter
            (fun (x, ord) ->
              Array.unsafe_set frame s x;
              ordinals.(level) <- ord;
              inner ())
            pairs
  in
  (go 0) ()

let iteration_order ?(pardo_order = `Forward) t =
  let acc = ref [] in
  run ~pardo_order ~on_iteration:(fun it -> acc := it :: !acc) t;
  List.rev !acc
