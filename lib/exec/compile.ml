open Itf_ir

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

(* Loads of an expression in the order the interpreter performs them:
   operands left to right, a load after its own subscripts. *)
let rec loads_in_order acc (e : Expr.t) =
  match e with
  | Int _ | Var _ -> acc
  | Neg a -> loads_in_order acc a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
    loads_in_order (loads_in_order acc a) b
  | Load a -> a :: List.fold_left loads_in_order acc a.Expr.index
  | Call (_, args) -> List.fold_left loads_in_order acc args

let loads e = List.rev (loads_in_order [] e)

(* ------------------------------------------------------------------ *)
(* Stream plan: the innermost loop as affine address sequences          *)
(* ------------------------------------------------------------------ *)

(* A value in one entry of the innermost loop with index [x]: [Inv e] is
   the same at every iteration, [Aff (c, o)] is [c * x + o], with [c] and
   [o] invariant. Invariant expressions mention no statement-defined
   scalar except through the entry slots below. *)
type form = Inv of Expr.t | Aff of Expr.t * Expr.t

type plan = {
  entry : (string * Expr.t) list;
      (** slot name, invariant value: run once per entry, in order *)
  sites : (string * (Expr.t * Expr.t) list) list;
      (** array, per-dimension (coefficient, offset), in touch order *)
  hidden : string list;  (** entry slots that are not scalars of the nest *)
}

let hidden_coef v = "\000c" ^ v
let hidden_off v = "\000o" ^ v

(* The init statements define the old indices as affine functions of the
   new ones (paper §2), so after substituting the statements that vary
   with the innermost index, each subscript of a transformed nest is
   usually affine in it. [None] when some statement or subscript is not,
   or when a stream could not replay the body exactly: a guard, a scalar
   read before its statement in the body (a value carried from the
   previous iteration), a scalar set twice, a loop variable set, or a
   loop bound reading a statement-defined scalar (a stream entry leaves
   those slots unwritten). *)
let stream_plan (nest : Nest.t) =
  match List.rev nest.Nest.loops with
  | [] -> None
  | inner :: _ ->
    let x = inner.Nest.var in
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
      List.length (List.sort_uniq String.compare targets)
         <> List.length targets
      || List.exists (fun v -> List.mem v loop_vars || List.mem v bound_vars)
           targets
    then None
    else
      let exception Not_affine in
      let assigned = Hashtbl.create 8 in
      let entry = ref [] and hidden = ref [] in
      let hoist ?(hide = true) name (e : Expr.t) : Expr.t =
        match e with
        | Int _ | Var _ -> e
        | _ ->
          entry := (name, e) :: !entry;
          if hide then hidden := name :: !hidden;
          Var name
      in
      let binary op a b =
        match (a, b) with
        | Inv a, Inv b -> Inv (op a b)
        | _ -> raise Not_affine
      in
      let rec lin (e : Expr.t) : form =
        match e with
        | Int _ -> Inv e
        | Var v when v = x -> Aff (Int 1, Int 0)
        | Var v -> (
          match Hashtbl.find_opt assigned v with
          | Some f -> f
          | None -> if List.mem v targets then raise Not_affine else Inv e)
        | Neg a -> (
          match lin a with
          | Inv a -> Inv (Neg a)
          | Aff (c, o) -> Aff (Neg c, Neg o))
        | Add (a, b) -> (
          match (lin a, lin b) with
          | Inv a, Inv b -> Inv (Add (a, b))
          | Aff (c, o), Inv b -> Aff (c, Add (o, b))
          | Inv a, Aff (c, o) -> Aff (c, Add (a, o))
          | Aff (c1, o1), Aff (c2, o2) -> Aff (Add (c1, c2), Add (o1, o2)))
        | Sub (a, b) -> (
          match (lin a, lin b) with
          | Inv a, Inv b -> Inv (Sub (a, b))
          | Aff (c, o), Inv b -> Aff (c, Sub (o, b))
          | Inv a, Aff (c, o) -> Aff (Neg c, Sub (a, o))
          | Aff (c1, o1), Aff (c2, o2) -> Aff (Sub (c1, c2), Sub (o1, o2)))
        | Mul (a, b) -> (
          match (lin a, lin b) with
          | Inv a, Inv b -> Inv (Mul (a, b))
          | Aff (c, o), Inv b -> Aff (Mul (c, b), Mul (o, b))
          | Inv a, Aff (c, o) -> Aff (Mul (a, c), Mul (a, o))
          | Aff _, Aff _ -> raise Not_affine)
        | Div (a, b) -> binary (fun a b -> Expr.Div (a, b)) (lin a) (lin b)
        | Mod (a, b) -> binary (fun a b -> Expr.Mod (a, b)) (lin a) (lin b)
        | Min (a, b) -> binary (fun a b -> Expr.Min (a, b)) (lin a) (lin b)
        | Max (a, b) -> binary (fun a b -> Expr.Max (a, b)) (lin a) (lin b)
        | Call (f, args) ->
          Inv
            (Call
               ( f,
                 List.map
                   (fun a ->
                     match lin a with Inv a -> a | Aff _ -> raise Not_affine)
                   args ))
        | Load _ -> raise Not_affine
      in
      let site (a : Expr.access) =
        ( a.Expr.array,
          List.map
            (fun i ->
              match lin i with
              | Inv e -> (Expr.Int 0, e)
              | Aff (c, o) -> (c, o))
            a.Expr.index )
      in
      (* In statement order: a [Set] binds its target for the statements
         after it. *)
      let step sites_rev (s : Stmt.t) =
        match s with
        | Stmt.Set (v, rhs) ->
          let f =
            match lin rhs with
            | Inv e -> Inv (hoist ~hide:false v e)
            | Aff (c, o) -> Aff (hoist (hidden_coef v) c, hoist (hidden_off v) o)
          in
          Hashtbl.replace assigned v f;
          sites_rev
        | Stmt.Store (a, rhs) ->
          site a :: List.rev_append (List.map site (loads rhs)) sites_rev
        | Stmt.Guard _ -> raise Not_affine
      in
      match List.fold_left step [] stmts with
      | sites_rev ->
        Some
          {
            entry = List.rev !entry;
            sites = List.rev sites_rev;
            hidden = List.rev !hidden;
          }
      | exception Not_affine -> None

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
  offs : (unit -> int) array;
  los : int array;
  his : int array;
  strides : int array;
}

(* One entry of the innermost loop of an address program; without a
   plan, every entry runs the closures. The entry slots are computed once;
   each site gets its address at the first iteration and its per-
   iteration delta. Every subscript is affine in the index, so it stays
   within its array's bounds exactly when both its first and its last
   value do; then the stream touches what the closures would, and
   nothing they run can raise. A step longer than the array's extent
   leaves it at the second iteration anyway; refusing it up front keeps
   the last-value arithmetic from wrapping. Otherwise — an endpoint out of bounds, or
   a division by zero in an invariant part — the entry runs through the
   body closures, which raise the interpreter's exception at its access. *)
let stream_runner ~frame ~slot ~cexpr ~body ~entries ~fallbacks ~level ~plan
    ~(stream : stream) ~base_of ~elem_bytes env =
  let plan =
    Option.value plan ~default:{ entry = []; sites = []; hidden = [] }
  and streams = Option.is_some plan in
  let entry =
    Array.of_list (List.map (fun (v, e) -> (slot v, cexpr e)) plan.entry)
  in
  let sites =
    Array.of_list
      (List.map
         (fun (array, dims) ->
           let info = Env.array_info env array in
           {
             base = base_of array;
             coefs = Array.of_list (List.map (fun (c, _) -> cexpr c) dims);
             offs = Array.of_list (List.map (fun (_, o) -> cexpr o) dims);
             los = info.Env.los;
             his = info.Env.his;
             strides = info.Env.strides;
           })
         plan.sites)
  in
  let nsites = Array.length sites in
  let starts = Array.make nsites 0 and deltas = Array.make nsites 0 in
  let setup lo step count =
    Array.iter (fun (s, f) -> Array.unsafe_set frame s (f ())) entry;
    let ok = ref true and k = ref 0 in
    while !ok && !k < nsites do
      let site = Array.unsafe_get sites !k in
      let first = ref 0 and delta = ref 0 in
      for d = 0 to Array.length site.coefs - 1 do
        let c = site.coefs.(d) () and o = site.offs.(d) () in
        let lo_d = site.los.(d) and hi_d = site.his.(d) in
        let x0 = o + (c * lo) and dx = c * step in
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
  let s = level.slot in
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
   loads, stores and right-hand sides compute no values, only the
   accesses' addresses, in the interpreter's order, with its bounds
   checks; [stream] replays the innermost loop where the plan allows. *)
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
         )
      @ match plan with Some p -> p.hidden | None -> [])
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
  (* The address program's right-hand side: its loads, in order. *)
  let crhs rhs =
    if values then cexpr rhs
    else
      let fs = Array.of_list (List.map cload (loads rhs)) in
      let n = Array.length fs in
      fun () ->
        for k = 0 to n - 1 do
          ignore ((Array.unsafe_get fs k) ())
        done;
        0
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
    let frhs = crhs rhs in
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

let iteration_order ?(pardo_order = `Forward) t =
  let acc = ref [] in
  run ~pardo_order ~on_iteration:(fun it -> acc := it :: !acc) t;
  List.rev !acc
