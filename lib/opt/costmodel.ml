open Itf_ir
module Framework = Itf_core.Framework
module Affine = Itf_bounds.Affine
module Access = Itf_bounds.Access

type estimate = { score : float; bound : float }

type spec =
  | Locality of {
      config : Itf_machine.Cache.config;
      elem_bytes : int;
      params : (string * int) list;
    }
  | Parallel of {
      procs : int;
      spawn_overhead : float;
      params : (string * int) list;
    }

(* Reordering preserves the touched-address set, so the locality bound
   holds for every descendant of a candidate too; the parallel bound does
   not survive further parallelization. *)
let subtree_admissible = function Locality _ -> true | Parallel _ -> false

let default_bounds ~params arity =
  let m = List.fold_left (fun acc (_, x) -> max acc (abs x)) 8 params in
  List.init arity (fun _ -> (-2 * m, 3 * m))

(* ------------------------------------------------------------------ *)
(* Interval arithmetic over Expr                                       *)
(* ------------------------------------------------------------------ *)

(* Closed float intervals. Floats keep the arithmetic overflow-free
   (every value the framework produces is far below 2^53, so floor
   division on floats is exact). [unknown] is the unknown interval, told
   apart by identity: a computed interval never is it, whatever its
   bounds (even NaN). *)
type iv = { lo : float; hi : float }

let unknown = { lo = Float.nan; hi = Float.nan }

let exact x = { lo = x; hi = x }

(* The hull of the four corner values, folded from the infinities in
   corner order. *)
let hull p1 p2 p3 p4 =
  {
    lo =
      Float.min
        (Float.min (Float.min (Float.min Float.infinity p1) p2) p3)
        p4;
    hi =
      Float.max
        (Float.max (Float.max (Float.max Float.neg_infinity p1) p2) p3)
        p4;
  }

(* [env] binds symbolic parameters to exact intervals and loop variables
   to their enclosing-range intervals, the latest binding first; anything
   absent (body-defined scalars, unbound symbols) is unknown. *)
let rec lookup v = function
  | [] -> unknown
  | (w, r) :: env -> if String.equal w v then r else lookup v env

let rec eval env (e : Expr.t) : iv =
  match e with
  | Int n -> exact (float n)
  | Var v -> lookup v env
  | Neg a ->
    let r = eval env a in
    if r == unknown then unknown else { lo = -.r.hi; hi = -.r.lo }
  | Add (a, b) ->
    let a = eval env a and b = eval env b in
    if a == unknown || b == unknown then unknown
    else { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
  | Sub (a, b) ->
    let a = eval env a and b = eval env b in
    if a == unknown || b == unknown then unknown
    else { lo = a.lo -. b.hi; hi = a.hi -. b.lo }
  | Mul (a, b) ->
    let a = eval env a and b = eval env b in
    if a == unknown || b == unknown then unknown
    else hull (a.lo *. b.lo) (a.lo *. b.hi) (a.hi *. b.lo) (a.hi *. b.hi)
  | Div (a, b) ->
    (* Floor division is monotone in the numerator and, for a divisor of
       constant sign, monotone in the divisor — corners suffice. A divisor
       interval containing 0 is unknown. *)
    let a = eval env a and b = eval env b in
    if a == unknown || b == unknown || not (b.lo > 0. || b.hi < 0.) then
      unknown
    else
      hull
        (Float.floor (a.lo /. b.lo))
        (Float.floor (a.lo /. b.hi))
        (Float.floor (a.hi /. b.lo))
        (Float.floor (a.hi /. b.hi))
  | Mod (a, b) ->
    (* Floor-mod takes the sign of the divisor. *)
    let a = eval env a and b = eval env b in
    if a == unknown || b == unknown then unknown
    else if b.lo > 0. then { lo = 0.; hi = b.hi -. 1. }
    else if b.hi < 0. then { lo = b.lo +. 1.; hi = 0. }
    else unknown
  | Min (a, b) ->
    let a = eval env a and b = eval env b in
    if a == unknown || b == unknown then unknown
    else { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }
  | Max (a, b) ->
    let a = eval env a and b = eval env b in
    if a == unknown || b == unknown then unknown
    else { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }
  | Call ("abs", [ a ]) ->
    let r = eval env a in
    if r == unknown then unknown
    else if r.lo >= 0. then r
    else if r.hi <= 0. then { lo = -.r.hi; hi = -.r.lo }
    else { lo = 0.; hi = Float.max (-.r.lo) r.hi }
  | Call ("sgn", [ _ ]) -> { lo = -1.; hi = 1. }
  | Load _ | Call _ -> unknown

(* The parameters as an interval environment; a name given twice binds
   its last value. *)
let param_env params = List.rev_map (fun (v, x) -> (v, exact (float x))) params

(* ------------------------------------------------------------------ *)
(* Loop levels: guaranteed and estimated trip counts                   *)
(* ------------------------------------------------------------------ *)

(* Per level, outermost first. *)
type levels = {
  vars : string array;
  kinds : Nest.kind array;
  tmin : float array;  (** guaranteed iterations of any one traversal (>= 0) *)
  test : float array;  (** estimated iterations of one traversal (>= 0) *)
}

let default_trip = 8.

(* Walk outermost-in, binding each loop variable's range interval before
   analyzing the next level (inner bounds may mention outer vars). *)
let analyze_levels env (loops : Nest.loop list) =
  let n = List.length loops in
  let lv =
    {
      vars = Array.make n "";
      kinds = Array.make n Nest.Do;
      tmin = Array.make n 0.;
      test = Array.make n 0.;
    }
  in
  let rec go k env = function
    | [] -> ()
    | (l : Nest.loop) :: loops ->
      let lo = eval env l.Nest.lo in
      let hi = eval env l.Nest.hi in
      let step = eval env l.Nest.step in
      (* [test] is the midpoint of the CLAMPED trip-count interval
         [[tmin, tmax]], not the raw midpoint of the bound expressions: a
         skewed or blocked loop whose range depends on outer variables is
         often empty at the worst corner yet populated elsewhere, and the
         raw midpoint collapses such loops to zero trips — flattening
         every descendant's estimate to 0 and letting them crowd the
         tier-0 screen. Only a certainly-empty loop (tmax <= 0) estimates
         zero. *)
      let trips k tlo thi =
        let tlo = Float.max 0. tlo and thi = Float.max 0. thi in
        lv.tmin.(k) <- tlo;
        lv.test.(k) <- (tlo +. thi) /. 2.
      [@@inline]
      in
      let range =
        if
          lo == unknown || hi == unknown || step == unknown
          || not (step.lo = step.hi && step.lo <> 0.)
        then begin
          lv.tmin.(k) <- 0.;
          lv.test.(k) <- default_trip;
          unknown
        end
        else
          let s = step.lo in
          if s > 0. then begin
            trips k
              (Float.floor ((hi.lo -. lo.hi) /. s) +. 1.)
              (((hi.hi -. lo.lo) /. s) +. 1.);
            if lo.lo <= hi.hi then { lo = lo.lo; hi = hi.hi } else unknown
          end
          else begin
            trips k
              (Float.floor ((lo.lo -. hi.hi) /. -.s) +. 1.)
              (((lo.hi -. hi.lo) /. -.s) +. 1.);
            if hi.lo <= lo.hi then { lo = hi.lo; hi = lo.hi } else unknown
          end
      in
      lv.vars.(k) <- l.Nest.var;
      lv.kinds.(k) <- l.Nest.kind;
      go (k + 1) ((l.Nest.var, range) :: env) loops
  in
  go 0 env loops;
  lv

(* ------------------------------------------------------------------ *)
(* Locality                                                            *)
(* ------------------------------------------------------------------ *)

(* The arrays, their row-major strides in elements and their
   whole-array footprints in lines, indexed alike. *)
type layout = {
  names : string array;
  strides : float array array;
  total_lines : float array;
}

let make_layout ~params ~line_elems refs =
  let arities = Hashtbl.create 8 in
  List.iter
    (fun (r : Access.reference) ->
      let k = List.length r.dims in
      match Hashtbl.find_opt arities r.array with
      | Some k' when k' >= k -> ()
      | _ -> Hashtbl.replace arities r.array k)
    refs;
  let arrays = List.of_seq (Hashtbl.to_seq arities) in
  let strides_of arity =
    let extents =
      default_bounds ~params arity
      |> List.map (fun (lo, hi) -> float (hi - lo + 1))
      |> Array.of_list
    in
    let strides = Array.make arity 1. in
    for d = arity - 2 downto 0 do
      strides.(d) <- strides.(d + 1) *. extents.(d + 1)
    done;
    (strides, Float.max 1. (Array.fold_left ( *. ) 1. extents /. line_elems))
  in
  let per = List.map (fun (_, arity) -> strides_of arity) arrays in
  {
    names = Array.of_list (List.map fst arrays);
    strides = Array.of_list (List.map fst per);
    total_lines = Array.of_list (List.map snd per);
  }

(* What the estimate reads of a root's references besides their forms,
   prepared once per root with its layout. Every candidate of a root
   has the root's references in the root's touch order, and only their
   forms differ: a template keeps the body, and the inits it adds read
   no array. Each candidate's forms are checked against [touch] before
   the shape is used, and a mismatch prepares another. The per-reference
   arrays are in source order (a store before its right-hand side): the
   float sums of the estimate depend on their order, and the estimates
   are pinned to this one. *)
type shape = {
  root : int;
  touch : (string * int * bool) array;
      (** per reference in touch order: its array, [pos] and [guarded] *)
  order : int array;  (** per source rank: the reference's touch index *)
  guarded : bool array;
  slot : int array;  (** its array's number among the root's arrays *)
  strides : float array array;  (** its array's, in elements *)
  cap : float array;  (** its array's whole footprint in lines *)
  slots : int;  (** the number of distinct arrays *)
  bound_order : int array;
      (** the array numbers with an unguarded reference, in the order
          the admissible bound sums their lines *)
}

let make_shape ~params ~line_elems ~root (refs : Access.reference list) =
  let layout = make_layout ~params ~line_elems refs in
  let touch = Array.of_list refs in
  let order =
    Array.of_list
      (List.map snd
         (List.sort
            (fun (a, _) (b, _) -> compare a b)
            (List.mapi (fun k (r : Access.reference) -> (r.pos, k)) refs)))
  in
  let src = Array.map (fun k -> touch.(k)) order in
  let index names name =
    let rec go k =
      if k = Array.length names then -1
      else if String.equal names.(k) name then k
      else go (k + 1)
    in
    go 0
  in
  let arrays =
    Array.of_list
      (Array.fold_left
         (fun acc (r : Access.reference) ->
           if List.mem r.array acc then acc else acc @ [ r.array ])
         [] src)
  in
  let in_layout (r : Access.reference) = index layout.names r.array in
  (* The bound sums one term per array, in the order a table keyed by
     array name visits them when written in source order: the pinned
     estimates were summed in that order (test_costmodel's oracle). *)
  let visit = Hashtbl.create 8 in
  Array.iter
    (fun (r : Access.reference) ->
      if not r.guarded then Hashtbl.replace visit r.array (index arrays r.array))
    src;
  {
    root;
    touch =
      Array.map (fun (r : Access.reference) -> (r.array, r.pos, r.guarded)) touch;
    order;
    guarded = Array.map (fun (r : Access.reference) -> r.guarded) src;
    slot = Array.map (fun (r : Access.reference) -> index arrays r.array) src;
    strides =
      Array.map
        (fun r ->
          let k = in_layout r in
          if k < 0 then [||] else layout.strides.(k))
        src;
    cap =
      Array.map
        (fun r ->
          let k = in_layout r in
          if k < 0 then Float.infinity else layout.total_lines.(k))
        src;
    slots = Array.length arrays;
    bound_order =
      Array.of_list
        (List.rev (Hashtbl.fold (fun _ slot acc -> slot :: acc) visit []));
  }

let fits_shape shape ~root (refs : Access.reference array) =
  shape.root = root
  && Array.length refs = Array.length shape.touch
  &&
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length refs do
    let (r : Access.reference) = refs.(!k) in
    let array, pos, guarded = shape.touch.(!k) in
    ok := String.equal r.array array && r.pos = pos && r.guarded = guarded;
    incr k
  done;
  !ok

(* A subscript base the bound may read: no array, and no name but the
   parameters. *)
let param_only names e =
  (not (Expr.fold_arrays (fun _ _ -> true) false e))
  && Expr.fold_vars (fun ok v -> ok && List.mem v names) true e

(* Distinct-line footprint of the subtree below each level, per reference,
   innermost-first recurrence: a level where the reference varies scales
   the inner footprint by its trip count damped by spatial reuse
   (consecutive iterations landing on the same line); an invariant level
   adds nothing. Capped at the whole array. [coeffs]/[nonlinear] are the
   reference's, in level order. *)
(* Adds each dimension's terms to its reference's row of [coeffs] (in
   elements, row-major: the dimension's stride times the coefficient),
   per level, in dimension order, and marks in [nonlinear] the levels a
   dimension uses non-linearly. *)
let rec flatten_dims vars coeffs nonlinear row strides d = function
  | [] -> ()
  | (af : Affine.t) :: dims ->
    let stride = if d < Array.length strides then strides.(d) else 1. in
    add_terms vars coeffs row stride af.Affine.coeffs;
    mark_levels vars nonlinear row af.Affine.nonlinear_in;
    flatten_dims vars coeffs nonlinear row strides (d + 1) dims

and add_terms vars coeffs row stride = function
  | [] -> ()
  | (v, c) :: terms ->
    if c <> 0 then
      for k = 0 to Array.length vars - 1 do
        if String.equal vars.(k) v then
          coeffs.(row + k) <- coeffs.(row + k) +. (stride *. float c)
      done;
    add_terms vars coeffs row stride terms

and mark_levels vars nonlinear row = function
  | [] -> ()
  | v :: rest ->
    for k = 0 to Array.length vars - 1 do
      if String.equal vars.(k) v then nonlinear.(row + k) <- true
    done;
    mark_levels vars nonlinear row rest

(* The guaranteed trips of variable [v]: its outermost level's, 0 when
   no level loops over it. *)
let tmin_of (levels : levels) v =
  let rec go k =
    if k = Array.length levels.vars then 0.
    else if String.equal levels.vars.(k) v then levels.tmin.(k)
    else go (k + 1)
  in
  go 0

(* The elements of one reference the bound may count: the most
   guaranteed trips of a dimension affine in one loop variable over a
   parameter-only base (at least 1). *)
let rec distinct levels param_names acc = function
  | [] -> acc
  | (af : Affine.t) :: dims ->
    let acc =
      match af.Affine.coeffs with
      | [ (v, _) ]
        when af.Affine.nonlinear_in = [] && param_only param_names af.Affine.base
        ->
        Float.max acc (tmin_of levels v)
      | _ -> acc
    in
    distinct levels param_names acc dims

(* Does an innermost-carried short distance reach back at most
   [line_dist] iterations, every outer entry zero? *)
let inner_reuse ~n ~line_dist (v : Itf_dep.Depvec.t) =
  let k = Array.length v in
  k = n && k > 0
  && (match v.(k - 1) with
     | Itf_dep.Depvec.Dist d -> d <> 0 && abs d <= line_dist
     | Itf_dep.Depvec.Dir _ -> false)
  &&
  let rec outer j = j = k - 1 || (Itf_dep.Depvec.elem_is_zero v.(j) && outer (j + 1)) in
  outer 0

let locality_estimate ~config ~elem_bytes ~params ~env ~param_names ~shapes
    ~refs (result : Framework.result) =
  let nest = result.Framework.nest in
  let line_bytes = float config.Itf_machine.Cache.line_bytes in
  let line_elems =
    Float.max 1. (line_bytes /. float (max 1 elem_bytes))
  in
  let levels = analyze_levels env nest.Nest.loops in
  let n = Array.length levels.vars in
  let touch = Array.of_list (refs ()).Access.refs in
  let root = result.Framework.root in
  let shape =
    match Atomic.get shapes with
    | Some shape when fits_shape shape ~root touch -> shape
    | _ ->
      let shape =
        make_shape ~params ~line_elems ~root (Array.to_list touch)
      in
      Atomic.set shapes (Some shape);
      shape
  in
  let nrefs = Array.length shape.order in
  let tests = levels.test in
  let eb = float elem_bytes in
  (* Row [i] (source rank) of [coeffs]/[nonlinear]: the reference's
     row-major flattened coefficient per level (in elements, 0 when it
     does not vary with the level), and whether it uses the level's
     variable non-linearly. *)
  let coeffs = Array.make (nrefs * n) 0. in
  let nonlinear = Array.make (nrefs * n) false in
  for i = 0 to nrefs - 1 do
    flatten_dims levels.vars coeffs nonlinear (i * n) shape.strides.(i) 0
      touch.(shape.order.(i)).Access.dims
  done;
  (* Row [i] of [lines]: the distinct-line footprint of the subtree below
     each level, innermost-first recurrence: a level where the reference
     varies scales the inner footprint by its trip count damped by
     spatial reuse (consecutive iterations landing on the same line); an
     invariant level adds nothing. Capped at the whole array. *)
  let w = n + 1 in
  let lines = Array.make (nrefs * w) 1. in
  for i = 0 to nrefs - 1 do
    let cap = shape.cap.(i) in
    for k = n - 1 downto 0 do
      let c = coeffs.((i * n) + k) and next = lines.((i * w) + k + 1) in
      lines.((i * w) + k) <-
        (if nonlinear.((i * n) + k) then
           (* unknown stride: assume a new line per value *)
           Float.min cap (next *. Float.max 1. tests.(k))
         else if c <> 0. then
           Float.min cap
             (next
             *. Float.max 1.
                  (tests.(k) *. Float.min 1. (Float.abs c *. eb /. line_bytes)))
         else next)
    done
  done;
  (* [fits.(k)]: does the combined footprint of the subtree below level
     [k] comfortably fit? (Half the capacity, to leave headroom for
     conflict misses the set-associative simulator will take.) *)
  let fits = Array.make w false in
  for k = 0 to n do
    let total = ref 0. in
    for i = 0 to nrefs - 1 do
      total := !total +. lines.((i * w) + k)
    done;
    fits.(k) <-
      !total *. line_bytes <= float config.Itf_machine.Cache.size_bytes /. 2.
  done;
  (* Rank estimate: per reference, the product over levels of a miss
     multiplier — trip count damped by spatial locality where the
     reference varies; re-traversal only re-misses when the inner
     footprint exceeds the cache. Capped at the reference's distinct-line
     footprint times its spilled re-traversals. An empty level silences
     the whole body: no accesses, no misses. The per-level factors are
     clamped to >= 1 (spatial damping must not underestimate a non-empty
     traversal), so emptiness has to short-circuit. *)
  let est = ref 0. in
  if Array.for_all (fun t -> t > 0.) tests then
    for i = 0 to nrefs - 1 do
      let m = ref 1. and retraverse = ref 1. in
      for k = 0 to n - 1 do
        let c = coeffs.((i * n) + k) in
        let factor =
          if nonlinear.((i * n) + k) then Float.max 1. tests.(k)
          else if c <> 0. then
            Float.max 1.
              (tests.(k) *. Float.min 1. (Float.abs c *. eb /. line_bytes))
          else if fits.(k + 1) then 1.
          else begin
            retraverse := !retraverse *. Float.max 1. tests.(k);
            Float.max 1. tests.(k)
          end
        in
        m := !m *. factor
      done;
      (* A guarded reference may never execute: weight it down rather
         than dropping it. *)
      est :=
        !est
        +. (if shape.guarded.(i) then 0.5 else 1.)
           *. Float.min !m (lines.(i * w) *. !retraverse)
    done;
  (* Temporal-reuse credit from the mapped dependence vectors: an
     innermost-carried short distance means the same element returns
     while its line is still hot. *)
  let line_dist = int_of_float line_elems in
  let est =
    if List.exists (inner_reuse ~n ~line_dist) result.Framework.vectors then
      !est *. 0.9
    else !est
  in
  (* Admissible bound: the simulated cache starts cold, so the run misses
     at least once per distinct line it touches. [distinct]
     under-approximates the elements certainly touched per array: only
     unguarded references, only subscript dimensions that are affine in
     exactly one loop variable with a parameter-only base (a self-written
     base could collide), and zero as soon as any loop may be empty (an
     empty inner loop silences the whole body). Lines never straddle
     arrays: the simulator lays arrays out line-aligned. *)
  let bound =
    if not (Array.for_all (fun t -> t >= 1.) levels.tmin) then 0.
    else begin
      let per_array = Array.make shape.slots 0. in
      for i = 0 to nrefs - 1 do
        if not shape.guarded.(i) then begin
          let d =
            distinct levels param_names 1. touch.(shape.order.(i)).Access.dims
          in
          let slot = shape.slot.(i) in
          per_array.(slot) <- Float.max per_array.(slot) d
        end
      done;
      (* A line can overlap at most this many elements (exact when
         [elem_bytes] divides the line size, conservative otherwise). *)
      let cap_per_line =
        float
          ((config.Itf_machine.Cache.line_bytes + max 1 elem_bytes - 1)
          / max 1 elem_bytes)
      in
      let sum = ref 0. in
      Array.iter
        (fun slot ->
          sum := !sum +. Float.ceil (per_array.(slot) /. cap_per_line))
        shape.bound_order;
      !sum
    end
  in
  let sane x = if Float.is_nan x then 0. else Float.max 0. x in
  let bound = sane bound in
  { score = Float.max (sane est) bound; bound }

(* ------------------------------------------------------------------ *)
(* Parallelism                                                         *)
(* ------------------------------------------------------------------ *)

let parallel_estimate ~procs ~spawn_overhead ~env (result : Framework.result) =
  let nest = result.Framework.nest in
  let levels = analyze_levels env nest.Nest.loops in
  let n = Array.length levels.vars in
  let u = float (Itf_machine.Parallel.body_cost nest) in
  (* Estimate: pardo levels divide their trips across processors (plus the
     spawn/join overhead); do levels multiply. *)
  let rec est k =
    if k = n then u
    else
      let test = levels.test.(k) in
      match levels.kinds.(k) with
      | Nest.Do -> test *. est (k + 1)
      | Nest.Pardo ->
        (Float.ceil (test /. float procs) *. est (k + 1))
        +. if test > 0. then spawn_overhead else 0.
  in
  (* Admissible bound: the simulator charges [u] per innermost iteration;
     a [do] level multiplies the subtree time by its trips, and a [pardo]
     level's max-over-processors is at least the fullest round-robin
     bucket (ceil(trips / P)) times the uniform subtree bound. Nested
     pardos therefore each divide by P — dividing total work by P once
     would overclaim. *)
  let rec bnd k =
    if k = n then u
    else
      let tmin = levels.tmin.(k) in
      match levels.kinds.(k) with
      | Nest.Do -> tmin *. bnd (k + 1)
      | Nest.Pardo -> Float.ceil (tmin /. float procs) *. bnd (k + 1)
  in
  let sane x = if Float.is_nan x then 0. else Float.max 0. x in
  let bound = sane (bnd 0) in
  { score = Float.max bound (sane (est 0)); bound }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let float_bits x =
  (* Two int halves: OCaml ints are 63-bit, so a single [Int64.to_int]
     would silently drop the sign bit. *)
  let b = Int64.bits_of_float x in
  [ Int64.to_int (Int64.shift_right_logical b 32); Int64.to_int (Int64.logand b 0xFFFFFFFFL) ]

(* Every name is its length then its character codes, and the list its
   length then the pairs, so the key is self-delimiting. *)
let params_key params =
  List.length params
  :: List.concat_map
       (fun (v, x) ->
         (String.length v :: List.init (String.length v) (fun k -> Char.code v.[k]))
         @ [ x ])
       params

let fingerprint spec =
  match spec with
  | Locality { config; elem_bytes; params } ->
    0
    :: config.Itf_machine.Cache.size_bytes
    :: config.Itf_machine.Cache.line_bytes
    :: config.Itf_machine.Cache.assoc :: elem_bytes :: params_key params
  | Parallel { procs; spawn_overhead; params } ->
    (1 :: procs :: float_bits spawn_overhead) @ params_key params

let estimate spec =
  let shapes = Atomic.make None in
  let env, param_names =
    match spec with
    | Locality { params; _ } | Parallel { params; _ } ->
      (param_env params, List.map fst params)
  in
  fun ?refs (result : Framework.result) ->
    let refs =
      match refs with
      | Some refs -> refs
      | None -> fun () -> Access.of_nest result.Framework.nest
    in
    match
      match spec with
      | Locality { config; elem_bytes; params } ->
        locality_estimate ~config ~elem_bytes ~params ~env ~param_names
          ~shapes ~refs result
      | Parallel { procs; spawn_overhead; _ } ->
        parallel_estimate ~procs ~spawn_overhead ~env result
    with
    | e -> e
    | exception _ ->
      (* Unanalyzable: claim nothing (bound 0) and rank first so the
         exact tier decides. *)
      { score = 0.; bound = 0. }
