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

(* Closed float intervals; [None] = unknown. Floats keep the arithmetic
   overflow-free (every value the framework produces is far below 2^53,
   so floor division on floats is exact). *)
type iv = { lo : float; hi : float }

let exact x = Some { lo = x; hi = x }

let corners f a b =
  let vs = [ f a.lo b.lo; f a.lo b.hi; f a.hi b.lo; f a.hi b.hi ] in
  Some
    {
      lo = List.fold_left Float.min Float.infinity vs;
      hi = List.fold_left Float.max Float.neg_infinity vs;
    }

let lift2 f a b = match (a, b) with Some a, Some b -> f a b | _ -> None

(* [tbl] maps symbolic parameters to exact intervals and loop variables to
   their enclosing-range intervals; anything absent (body-defined scalars,
   unbound symbols) is unknown. *)
let rec eval tbl (e : Expr.t) : iv option =
  match e with
  | Int n -> exact (float n)
  | Var v -> ( match Hashtbl.find_opt tbl v with Some r -> r | None -> None)
  | Neg a ->
    Option.map (fun r -> { lo = -.r.hi; hi = -.r.lo }) (eval tbl a)
  | Add (a, b) ->
    lift2
      (fun a b -> Some { lo = a.lo +. b.lo; hi = a.hi +. b.hi })
      (eval tbl a) (eval tbl b)
  | Sub (a, b) ->
    lift2
      (fun a b -> Some { lo = a.lo -. b.hi; hi = a.hi -. b.lo })
      (eval tbl a) (eval tbl b)
  | Mul (a, b) -> lift2 (corners (fun x y -> x *. y)) (eval tbl a) (eval tbl b)
  | Div (a, b) ->
    (* Floor division is monotone in the numerator and, for a divisor of
       constant sign, monotone in the divisor — corners suffice. A divisor
       interval containing 0 is unknown. *)
    lift2
      (fun a b ->
        if b.lo > 0. || b.hi < 0. then
          corners (fun x y -> Float.floor (x /. y)) a b
        else None)
      (eval tbl a) (eval tbl b)
  | Mod (a, b) ->
    (* Floor-mod takes the sign of the divisor. *)
    lift2
      (fun _ b ->
        if b.lo > 0. then Some { lo = 0.; hi = b.hi -. 1. }
        else if b.hi < 0. then Some { lo = b.lo +. 1.; hi = 0. }
        else None)
      (eval tbl a) (eval tbl b)
  | Min (a, b) ->
    lift2
      (fun a b -> Some { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi })
      (eval tbl a) (eval tbl b)
  | Max (a, b) ->
    lift2
      (fun a b -> Some { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi })
      (eval tbl a) (eval tbl b)
  | Call ("abs", [ a ]) ->
    Option.map
      (fun r ->
        if r.lo >= 0. then r
        else if r.hi <= 0. then { lo = -.r.hi; hi = -.r.lo }
        else { lo = 0.; hi = Float.max (-.r.lo) r.hi })
      (eval tbl a)
  | Call ("sgn", [ _ ]) -> Some { lo = -1.; hi = 1. }
  | Load _ | Call _ -> None

(* ------------------------------------------------------------------ *)
(* Loop levels: guaranteed and estimated trip counts                   *)
(* ------------------------------------------------------------------ *)

type level = {
  var : string;
  kind : Nest.kind;
  tmin : float;  (** guaranteed iterations of any one traversal (>= 0) *)
  test : float;  (** estimated iterations of one traversal (>= 0) *)
}

let default_trip = 8.

(* Walk outermost-in, binding each loop variable's range interval in [tbl]
   before analyzing the next level (inner bounds may mention outer vars). *)
let analyze_levels tbl (loops : Nest.loop list) =
  List.map
    (fun (l : Nest.loop) ->
      let lo = eval tbl l.Nest.lo in
      let hi = eval tbl l.Nest.hi in
      let step =
        match eval tbl l.Nest.step with
        | Some r when r.lo = r.hi && r.lo <> 0. -> Some r.lo
        | _ -> None
      in
      (* [test] is the midpoint of the CLAMPED trip-count interval
         [[tmin, tmax]], not the raw midpoint of the bound expressions: a
         skewed or blocked loop whose range depends on outer variables is
         often empty at the worst corner yet populated elsewhere, and the
         raw midpoint collapses such loops to zero trips — flattening every
         descendant's estimate to 0 and letting them crowd the tier-0
         screen. Only a certainly-empty loop (tmax <= 0) estimates zero. *)
      let trips tlo thi =
        let tlo = Float.max 0. tlo and thi = Float.max 0. thi in
        (tlo, (tlo +. thi) /. 2.)
      in
      let tmin, test, range =
        match (lo, hi, step) with
        | Some lo, Some hi, Some s when s > 0. ->
          let tmin, test =
            trips
              (Float.floor ((hi.lo -. lo.hi) /. s) +. 1.)
              (((hi.hi -. lo.lo) /. s) +. 1.)
          in
          ( tmin,
            test,
            if lo.lo <= hi.hi then Some { lo = lo.lo; hi = hi.hi } else None )
        | Some lo, Some hi, Some s ->
          let tmin, test =
            trips
              (Float.floor ((lo.lo -. hi.hi) /. -.s) +. 1.)
              (((lo.hi -. hi.lo) /. -.s) +. 1.)
          in
          ( tmin,
            test,
            if hi.lo <= lo.hi then Some { lo = hi.lo; hi = lo.hi } else None )
        | _ -> (0., default_trip, None)
      in
      Hashtbl.replace tbl l.Nest.var range;
      { var = l.Nest.var; kind = l.Nest.kind; tmin; test })
    loops

(* ------------------------------------------------------------------ *)
(* Locality                                                            *)
(* ------------------------------------------------------------------ *)

type layout = {
  strides : (string * float array) list;  (** row-major, in elements *)
  total_lines : (string * float) list;  (** whole-array footprint, lines *)
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
  Hashtbl.fold
    (fun a arity acc ->
      let extents =
        default_bounds ~params arity
        |> List.map (fun (lo, hi) -> float (hi - lo + 1))
        |> Array.of_list
      in
      let strides = Array.make arity 1. in
      for d = arity - 2 downto 0 do
        strides.(d) <- strides.(d + 1) *. extents.(d + 1)
      done;
      let elems = Array.fold_left ( *. ) 1. extents in
      {
        strides = (a, strides) :: acc.strides;
        total_lines = (a, Float.max 1. (elems /. line_elems)) :: acc.total_lines;
      })
    arities
    { strides = []; total_lines = [] }

(* Per-reference view: the flattened (row-major) affine form of the byte
   address as a function of the loop variables. *)
type flat = {
  ref_ : Access.reference;
  coeffs : float array;  (** per level, in elements; 0 when invariant *)
  nonlinear : bool array;  (** per level: used non-linearly at this level *)
}

let flatten ~vars ~layout (r : Access.reference) =
  let strides =
    match List.assoc_opt r.array layout.strides with
    | Some s -> s
    | None -> [||]
  in
  let n = List.length vars in
  let coeffs = Array.make n 0. in
  let nonlinear = Array.make n false in
  List.iteri
    (fun d (af : Affine.t) ->
      let stride = if d < Array.length strides then strides.(d) else 1. in
      List.iteri
        (fun k v ->
          let c = Affine.coeff af v in
          if c <> 0 then coeffs.(k) <- coeffs.(k) +. (stride *. float c);
          if List.mem v af.Affine.nonlinear_in then nonlinear.(k) <- true)
        vars)
    r.dims;
  { ref_ = r; coeffs; nonlinear }

(* Distinct-line footprint of the subtree below each level, per reference,
   innermost-first recurrence: a level where the reference varies scales
   the inner footprint by its trip count damped by spatial reuse
   (consecutive iterations landing on the same line); an invariant level
   adds nothing. Capped at the whole array. *)
let line_profile ~elem_bytes ~line_bytes ~levels ~layout (f : flat) =
  let n = Array.length f.coeffs in
  let lines = Array.make (n + 1) 1. in
  let cap =
    match List.assoc_opt f.ref_.array layout.total_lines with
    | Some c -> c
    | None -> Float.infinity
  in
  let tests = Array.of_list (List.map (fun l -> l.test) levels) in
  for k = n - 1 downto 0 do
    let v =
      if f.nonlinear.(k) then
        Some line_bytes (* unknown stride: assume a new line per value *)
      else if f.coeffs.(k) <> 0. then
        Some (Float.abs f.coeffs.(k) *. elem_bytes)
      else None
    in
    lines.(k) <-
      (match v with
      | Some stride_bytes ->
        Float.min cap
          (lines.(k + 1)
          *. Float.max 1. (tests.(k) *. Float.min 1. (stride_bytes /. line_bytes))
          )
      | None -> lines.(k + 1))
  done;
  lines

let locality_estimate ~config ~elem_bytes ~params ~layouts ~refs
    (result : Framework.result) =
  let nest = result.Framework.nest in
  let line_bytes = float config.Itf_machine.Cache.line_bytes in
  let line_elems =
    Float.max 1. (line_bytes /. float (max 1 elem_bytes))
  in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (v, x) -> Hashtbl.replace tbl v (exact (float x))) params;
  let levels = analyze_levels tbl nest.Nest.loops in
  let n = List.length levels in
  (* In source order (a store before its right-hand side): the float
     sums below depend on their order, and the estimates are pinned to
     this one. *)
  let refs =
    List.sort
      (fun (a : Access.reference) b -> compare a.pos b.pos)
      (refs ()).Access.refs
  in
  (* The layout reads only the arrays and their arities, which every
     candidate of one root shares (a reordering keeps the body), so it
     is built once per root in the estimator's cell. *)
  let layout =
    match Atomic.get layouts with
    | Some (root, layout) when root = result.Framework.root -> layout
    | _ ->
      let layout = make_layout ~params ~line_elems refs in
      Atomic.set layouts (Some (result.Framework.root, layout));
      layout
  in
  let vars = List.map (fun l -> l.var) levels in
  let flats =
    List.map (flatten ~vars ~layout) refs
  in
  let profiles =
    List.map
      (line_profile ~elem_bytes:(float elem_bytes) ~line_bytes ~levels ~layout)
      flats
  in
  (* [fits k]: does the combined footprint of the subtree below level [k]
     comfortably fit? (Half the capacity, to leave headroom for conflict
     misses the set-associative simulator will take.) *)
  let fits =
    Array.init (n + 1) (fun k ->
        let total =
          List.fold_left (fun acc p -> acc +. p.(k)) 0. profiles
        in
        total *. line_bytes <= float config.Itf_machine.Cache.size_bytes /. 2.)
  in
  let tests = Array.of_list (List.map (fun l -> l.test) levels) in
  (* Rank estimate: per reference, the product over levels of a miss
     multiplier — trip count damped by spatial locality where the
     reference varies; re-traversal only re-misses when the inner
     footprint exceeds the cache. Capped at the reference's distinct-line
     footprint times its spilled re-traversals. *)
  let est_of f p =
    let m = ref 1. in
    let retraverse = ref 1. in
    for k = 0 to n - 1 do
      let factor =
        if f.nonlinear.(k) then Float.max 1. tests.(k)
        else if f.coeffs.(k) <> 0. then
          Float.max 1.
            (tests.(k)
            *. Float.min 1.
                 (Float.abs f.coeffs.(k) *. float elem_bytes /. line_bytes))
        else if fits.(k + 1) then 1.
        else begin
          retraverse := !retraverse *. Float.max 1. tests.(k);
          Float.max 1. tests.(k)
        end
      in
      m := !m *. factor
    done;
    (* A guarded reference may never execute: weight it down rather than
       dropping it. *)
    (if f.ref_.guarded then 0.5 else 1.)
    *. Float.min !m (p.(0) *. !retraverse)
  in
  (* An empty level silences the whole body: no accesses, no misses. The
     per-level factors below are clamped to >= 1 (spatial damping must not
     underestimate a non-empty traversal), so emptiness has to short-
     circuit here. *)
  let runs = List.for_all (fun l -> l.test > 0.) levels in
  let est =
    if not runs then 0.
    else List.fold_left2 (fun acc f p -> acc +. est_of f p) 0. flats profiles
  in
  (* Temporal-reuse credit from the mapped dependence vectors: an
     innermost-carried short distance means the same element returns
     while its line is still hot. *)
  let line_dist = int_of_float line_elems in
  let reuse =
    List.exists
      (fun v ->
        let k = Array.length v in
        k = n && k > 0
        && (match v.(k - 1) with
           | Itf_dep.Depvec.Dist d -> d <> 0 && abs d <= line_dist
           | Itf_dep.Depvec.Dir _ -> false)
        && Array.for_all Itf_dep.Depvec.elem_is_zero (Array.sub v 0 (k - 1)))
      result.Framework.vectors
  in
  let est = if reuse then est *. 0.9 else est in
  (* Admissible bound: the simulated cache starts cold, so the run misses
     at least once per distinct line it touches. [dmin] under-approximates
     the elements certainly touched per array: only unguarded references,
     only subscript dimensions that are affine in exactly one loop
     variable with a parameter-only base (a self-written base could
     collide), and zero as soon as any loop may be empty (an empty inner
     loop silences the whole body). Lines never straddle arrays: the
     simulator lays arrays out line-aligned. *)
  let param_names = List.map fst params in
  let tmins = List.map (fun l -> (l.var, l.tmin)) levels in
  let tmin_of v = Option.value ~default:0. (List.assoc_opt v tmins) in
  let all_nonempty = List.for_all (fun l -> l.tmin >= 1.) levels in
  let bound =
    if not all_nonempty then 0.
    else begin
      let per_array = Hashtbl.create 8 in
      List.iter
        (fun f ->
          if not f.ref_.guarded then begin
            let d =
              List.fold_left
                (fun acc (af : Affine.t) ->
                  match af.Affine.coeffs with
                  | [ (v, _) ]
                    when af.Affine.nonlinear_in = []
                         && Expr.arrays af.Affine.base = []
                         && List.for_all
                              (fun fv -> List.mem fv param_names)
                              (Expr.free_vars af.Affine.base) ->
                    Float.max acc (tmin_of v)
                  | _ -> acc)
                1. f.ref_.dims
            in
            let prev =
              Option.value ~default:0.
                (Hashtbl.find_opt per_array f.ref_.array)
            in
            Hashtbl.replace per_array f.ref_.array (Float.max prev d)
          end)
        flats;
      (* A line can overlap at most this many elements (exact when
         [elem_bytes] divides the line size, conservative otherwise). *)
      let cap_per_line =
        float
          ((config.Itf_machine.Cache.line_bytes + max 1 elem_bytes - 1)
          / max 1 elem_bytes)
      in
      Hashtbl.fold
        (fun _ d acc -> acc +. Float.ceil (d /. cap_per_line))
        per_array 0.
    end
  in
  let sane x = if Float.is_nan x then 0. else Float.max 0. x in
  let bound = sane bound in
  { score = Float.max (sane est) bound; bound }

(* ------------------------------------------------------------------ *)
(* Parallelism                                                         *)
(* ------------------------------------------------------------------ *)

let parallel_estimate ~procs ~spawn_overhead ~params (result : Framework.result)
    =
  let nest = result.Framework.nest in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (v, x) -> Hashtbl.replace tbl v (exact (float x))) params;
  let levels = analyze_levels tbl nest.Nest.loops in
  let u = float (Itf_machine.Parallel.body_cost nest) in
  (* Estimate: pardo levels divide their trips across processors (plus the
     spawn/join overhead); do levels multiply. *)
  let rec est = function
    | [] -> u
    | l :: rest -> (
      match l.kind with
      | Nest.Do -> l.test *. est rest
      | Nest.Pardo ->
        (Float.ceil (l.test /. float procs) *. est rest)
        +. if l.test > 0. then spawn_overhead else 0.)
  in
  (* Admissible bound: the simulator charges [u] per innermost iteration;
     a [do] level multiplies the subtree time by its trips, and a [pardo]
     level's max-over-processors is at least the fullest round-robin
     bucket (ceil(trips / P)) times the uniform subtree bound. Nested
     pardos therefore each divide by P — dividing total work by P once
     would overclaim. *)
  let rec bnd = function
    | [] -> u
    | l :: rest -> (
      match l.kind with
      | Nest.Do -> l.tmin *. bnd rest
      | Nest.Pardo -> Float.ceil (l.tmin /. float procs) *. bnd rest)
  in
  let sane x = if Float.is_nan x then 0. else Float.max 0. x in
  let bound = sane (bnd levels) in
  { score = Float.max bound (sane (est levels)); bound }

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
  let layouts = Atomic.make None in
  fun ?refs (result : Framework.result) ->
    let refs =
      match refs with
      | Some refs -> refs
      | None -> fun () -> Access.of_nest result.Framework.nest
    in
    match
      match spec with
      | Locality { config; elem_bytes; params } ->
        locality_estimate ~config ~elem_bytes ~params ~layouts ~refs result
      | Parallel { procs; spawn_overhead; params } ->
        parallel_estimate ~procs ~spawn_overhead ~params result
    with
    | e -> e
    | exception _ ->
      (* Unanalyzable: claim nothing (bound 0) and rank first so the
         exact tier decides. *)
      { score = 0.; bound = 0. }
