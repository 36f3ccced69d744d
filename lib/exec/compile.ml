open Itf_ir
module Access = Itf_bounds.Access

type pardo_order = Interp.pardo_order

type addr = {
  base_of : string -> int;
  elem_bytes : int;
  touch : int -> unit;
}

type stream = starts:int array -> deltas:int array -> count:int -> unit

type stream_stats = { entries : int; fallbacks : int }

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
  inner : (unit -> unit) option;
      (** address programs with a stream plan: runs the innermost loop at
          the current frame, as one {!stream} call where it can *)
  entries : int ref;
  fallbacks : int ref;
}

let oob name k x lo hi =
  invalid_arg
    (Printf.sprintf "Env: %s subscript %d = %d out of [%d, %d]" name k x lo hi)

(* ------------------------------------------------------------------ *)
(* Static control                                                      *)
(* ------------------------------------------------------------------ *)

(* An expression whose value no array can affect: no load, and no call
   but the builtins (a registered function is opaque and may read an
   array). *)
let rec pure (e : Expr.t) =
  match e with
  | Int _ | Var _ -> true
  | Neg a -> pure a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
    pure a && pure b
  | Call (("abs" | "sgn"), [ a ]) -> pure a
  | Load _ | Call _ -> false

(* A store's right-hand side whose value can be skipped: it cannot raise
   (every divisor a nonzero literal, only the builtins), so only its
   loads' addresses are observable. *)
let rec total_rhs (e : Expr.t) =
  match e with
  | Int _ | Var _ -> true
  | Neg a -> total_rhs a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Min (a, b) | Max (a, b) ->
    total_rhs a && total_rhs b
  | Div (a, Int n) | Mod (a, Int n) -> n <> 0 && total_rhs a
  | Div _ | Mod _ -> false
  | Load { index; _ } -> List.for_all pure index
  | Call (("abs" | "sgn"), [ a ]) -> total_rhs a
  | Call _ -> false

let rec static_stmt (s : Stmt.t) =
  match s with
  | Stmt.Store ({ index; _ }, rhs) -> List.for_all pure index && total_rhs rhs
  | Stmt.Set (_, rhs) -> pure rhs
  | Stmt.Guard { lhs; rhs; body; _ } ->
    pure lhs && pure rhs && List.for_all static_stmt body

let static_control (nest : Nest.t) =
  List.for_all
    (fun (l : Nest.loop) -> pure l.Nest.lo && pure l.Nest.hi && pure l.Nest.step)
    nest.Nest.loops
  && List.for_all static_stmt (nest.Nest.inits @ nest.Nest.body)

(* ------------------------------------------------------------------ *)
(* Stream plan: the innermost loop as affine address sequences          *)
(* ------------------------------------------------------------------ *)

type plan = {
  sets : (string * Expr.t) list;
      (** the scalar statements, in order: run once per entry, at the
          first iteration *)
  sites : (string * (Expr.t * Expr.t) list) list;
      (** array, per dimension (coefficient of the innermost index,
          subscript as written), in touch order *)
}

(* Every subscript of a transformed nest is usually affine in the
   innermost index once the init statements are substituted
   ({!Access}); its coefficient may be symbolic ([n * j]), read once per
   entry. [None] when some scalar statement or subscript is not, or when a stream could not replay the body exactly: a guard,
   a scalar read before its statement in the body (a value carried from
   the previous iteration, which [Access] makes non-affine), a scalar set
   twice, a loop variable set, or a loop bound reading a statement-
   defined scalar (a stream entry leaves those slots at their first
   iteration's values). *)
let stream_plan (nest : Nest.t) =
  let stmts = nest.Nest.inits @ nest.Nest.body in
  let targets = List.concat_map Stmt.defined_vars stmts in
  let loop_vars = Nest.loop_vars nest in
  let bound_vars =
    List.concat_map
      (fun (l : Nest.loop) ->
        List.concat_map Expr.free_vars [ l.Nest.lo; l.Nest.hi; l.Nest.step ])
      nest.Nest.loops
  in
  if
    loop_vars = []
    || List.exists (function Stmt.Guard _ -> true | _ -> false) stmts
    || List.length (List.sort_uniq String.compare targets)
       <> List.length targets
    || List.exists (fun v -> List.mem v loop_vars || List.mem v bound_vars)
         targets
  then None
  else
    let access = Access.of_nest nest in
    if
      List.for_all (fun (s : Access.scalar) -> Option.is_some s.slope)
        access.scalars
      && List.for_all
           (fun (r : Access.reference) -> List.for_all Option.is_some r.slopes)
           access.refs
    then
      Some
        {
          sets =
            List.filter_map
              (function Stmt.Set (v, e) -> Some (v, e) | _ -> None)
              stmts;
          sites =
            List.map
              (fun (r : Access.reference) ->
                (r.array, List.map2 (fun c e -> (Option.get c, e)) r.slopes r.index))
              access.refs;
        }
    else None

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let header (lv : level) =
  let lo = lv.lo () in
  let hi = lv.hi () in
  let step = lv.step () in
  if step = 0 then invalid_arg ("Compile: zero step in loop " ^ lv.var);
  (lo, step, max 0 (Expr.fdiv (hi - lo) step + 1))

type site = {
  base : int;
  coefs : (unit -> int) array;
  subs : (unit -> int) array;
  los : int array;
  his : int array;
  strides : int array;
}

(* One entry of the innermost loop of an address program; without a
   plan, every entry runs the closures. At the entry's first iteration
   the scalar statements run once, in order, and each site's subscripts
   give its first address; the coefficients, evaluated then, give its
   per-iteration delta. Every statement and subscript is affine in the
   index, with a coefficient that does not change in the entry, so the
   statements cannot raise at a later iteration if they did not at the
   first, and a subscript stays within its array's bounds exactly when
   both its first and its last value do; then the stream touches what
   the closures would, and nothing they run can raise. A step longer
   than the array's extent leaves it at the second iteration anyway;
   refusing it up front keeps the last-value arithmetic from wrapping.
   Otherwise — an endpoint out of bounds, or a division by zero at the
   first iteration — the entry runs through the body closures, which
   raise the interpreter's exception at its access. *)
let stream_runner ~frame ~slot ~cexpr ~body ~entries ~fallbacks ~level ~plan
    ~(stream : stream) ~base_of ~elem_bytes env =
  let plan = Option.value plan ~default:{ sets = []; sites = [] }
  and streams = Option.is_some plan in
  let sets =
    Array.of_list (List.map (fun (v, e) -> (slot v, cexpr e)) plan.sets)
  in
  let sites =
    Array.of_list
      (List.map
         (fun (array, dims) ->
           let info = Env.array_info env array in
           {
             base = base_of array;
             coefs = Array.of_list (List.map (fun (c, _) -> cexpr c) dims);
             subs = Array.of_list (List.map (fun (_, e) -> cexpr e) dims);
             los = info.Env.los;
             his = info.Env.his;
             strides = info.Env.strides;
           })
         plan.sites)
  in
  let nsites = Array.length sites in
  let starts = Array.make nsites 0 and deltas = Array.make nsites 0 in
  let s = level.slot in
  let setup lo step count =
    Array.unsafe_set frame s lo;
    Array.iter (fun (s, f) -> Array.unsafe_set frame s (f ())) sets;
    let ok = ref true and k = ref 0 in
    while !ok && !k < nsites do
      let site = Array.unsafe_get sites !k in
      let first = ref 0 and delta = ref 0 in
      for d = 0 to Array.length site.coefs - 1 do
        let x0 = site.subs.(d) () and dx = site.coefs.(d) () * step in
        let lo_d = site.los.(d) and hi_d = site.his.(d) in
        let x1 = x0 + ((count - 1) * dx) in
        if
          x0 < lo_d || x0 > hi_d || x1 < lo_d || x1 > hi_d
          || (count > 1 && abs dx > hi_d - lo_d)
        then ok := false;
        first := !first + ((x0 - lo_d) * site.strides.(d));
        delta := !delta + (dx * site.strides.(d))
      done;
      starts.(!k) <- site.base + (!first * elem_bytes);
      deltas.(!k) <- !delta * elem_bytes;
      incr k
    done;
    !ok
  in
  fun () ->
    let lo, step, count = header level in
    if count > 0 then
      if
        streams
        && match setup lo step count with
           | ok -> ok
           | exception Division_by_zero -> false
      then begin
        incr entries;
        stream ~starts ~deltas ~count
      end
      else begin
        incr fallbacks;
        for k = 0 to count - 1 do
          Array.unsafe_set frame s (lo + (k * step));
          body ()
        done
      end

(* [values = false] builds the address program of a static-control nest:
   loads and stores read and write no array, only the accesses'
   addresses, in the interpreter's order, with its bounds checks (a load
   gives 0, so a right-hand side, which cannot raise, only touches its
   loads); [stream] replays the innermost loop where the plan allows. *)
let build ~values ?trace ?addr ?stream env (nest : Nest.t) =
  let plan =
    match stream with
    | Some _ when not values -> stream_plan nest
    | _ -> None
  in
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
    | Some h when not values ->
      fun () ->
        h (flat ());
        0
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
      | Some h when not values -> fun flat _ -> h flat
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
  let entries = ref 0 and fallbacks = ref 0 in
  let inner =
    match (stream, addr) with
    | Some stream, Some { base_of; elem_bytes; _ } when not values ->
      Some
        (stream_runner ~frame ~slot ~cexpr ~body ~entries ~fallbacks
           ~level:levels.(Array.length levels - 1)
           ~plan ~stream ~base_of ~elem_bytes env)
    | _ -> None
  in
  { env; frame; names; loop_slots; levels; body; inner; entries; fallbacks }

let compile ?trace ?addr env nest = build ~values:true ?trace ?addr env nest

let compile_addresses addr ~stream env nest =
  if not (static_control nest) then
    invalid_arg "Compile.compile_addresses: nest is not static-control";
  build ~values:false ~addr ~stream env nest

let stream_stats t = { entries = !(t.entries); fallbacks = !(t.fallbacks) }

let sync t =
  Array.iteri
    (fun k name ->
      match Env.find_scalar t.env name with
      | Some x -> t.frame.(k) <- x
      | None -> t.frame.(k) <- 0)
    t.names

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
    else if
      level = depth - 1 && Option.is_some t.inner && on_iteration = None
      && (not track_ordinals)
      && (t.levels.(level).kind = Nest.Do || pardo_order = `Forward)
    then Option.get t.inner
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
