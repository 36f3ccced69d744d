module Dir = Itf_dep.Dir
module Depvec = Itf_dep.Depvec
module Intmat = Itf_mat.Intmat

open Depvec

let is_zero e = elem_is_zero e

(* ------------------------------------------------------------------ *)
(* Unimodular: d' = M x d, extended to direction values.               *)
(* ------------------------------------------------------------------ *)

(* Extended-integer interval abstraction of an entry. Every interval
   this module builds has a low end of [NegInf] or [Fin] and a high end of
   [Fin] or [PosInf] (an entry's interval, a value delta's, a hull, and
   the scaled, negated and summed images of those), so
   {!Itf_dep.Interval.add} never meets [inf - inf] here. *)
module Interval = Itf_dep.Interval

type ext = Interval.ext = NegInf | Fin of int | PosInf

let interval_of_elem = function
  | Dist d -> (Fin d, Fin d)
  | Dir d ->
    let s = Dir.signs d in
    let lo = if s.Dir.neg then NegInf else if s.Dir.zero then Fin 0 else Fin 1 in
    let hi = if s.Dir.pos then PosInf else if s.Dir.zero then Fin 0 else Fin (-1) in
    (lo, hi)

let elem_of_interval (lo, hi) =
  match (lo, hi) with
  | Fin a, Fin b when a = b -> Dist a
  | Fin a, Fin b when a > 0 && b > 0 -> dir Dir.Pos
  | Fin a, _ when a > 0 -> dir Dir.Pos
  | Fin 0, _ -> dir Dir.NonNeg
  | _, Fin b when b < 0 -> dir Dir.Neg
  | _, Fin 0 -> dir Dir.NonPos
  | _ -> dir Dir.Any

(* Scale an entry by an integer, exactly (keeps NonZero precision for
   signed-permutation rows, where interval arithmetic would widen). *)
let elem_scale c e =
  if c = 0 then Dist 0
  else
    match e with
    | Dist d -> Dist (c * d)
    | Dir d -> dir (if c > 0 then d else Dir.reverse d)

(* ------------------------------------------------------------------ *)
(* Grid-shift-aware normalized deltas for Unimodular                   *)
(* ------------------------------------------------------------------ *)

(* The unimodular matrix acts on the step-normalized loop variables
   produced by {!Codegen.normalize_steps}: a unit-step loop keeps its
   variable, and a loop with step [s] and lower bound [lo] becomes a
   zero-based counter [t] with [x = lo + s*t]. When [lo] is invariant in
   the enclosing loop variables, the normalized delta of a dependence
   equals its vector entry and the classic [d' = M d] rule applies. When
   [lo] depends on an enclosing loop, the two iterations of a dependence
   sit on shifted grids and the counter delta is [(dx - dlo) / s], which
   the entry alone does not determine: the plain rule accepted skews and
   reversals that reorder dependent iterations (found by the differential
   fuzzer, e.g. skewing across [do j = i, i+3, 3]). For such components we
   bound the normalized delta by interval arithmetic over value deltas. *)

(* Possible differences [x_sink - x_source] of the original variable's
   values. [aligned] asserts the loop's grid origin is shared by both
   iterations, so nonzero differences are at least a full step apart. *)
let value_interval ~step ~aligned e =
  if is_zero e then (Fin 0, Fin 0)
  else
    match e with
    | Dist d -> (Fin (d * step), Fin (d * step))
    | Dir d ->
      let s = Dir.signs d in
      let m = if aligned then abs step else 1 in
      (* entry constrains the execution-corrected sign u = dx * sgn(step) *)
      let ulo =
        if s.Dir.neg then NegInf else if s.Dir.zero then Fin 0 else Fin m
      in
      let uhi =
        if s.Dir.pos then PosInf else if s.Dir.zero then Fin 0 else Fin (-m)
      in
      if step > 0 then (ulo, uhi) else Interval.neg (ulo, uhi)

(* Interval of [e(sink) - e(source)] given value-delta intervals for the
   enclosing loop variables (anything else is invariant between the two). *)
let rec delta_expr env (e : Itf_ir.Expr.t) =
  let module Expr = Itf_ir.Expr in
  match e with
  | Expr.Int _ -> (Fin 0, Fin 0)
  | Expr.Var v -> (
    match List.assoc_opt v env with Some iv -> iv | None -> (Fin 0, Fin 0))
  | Expr.Neg a -> Interval.neg (delta_expr env a)
  | Expr.Add (a, b) -> Interval.add (delta_expr env a) (delta_expr env b)
  | Expr.Sub (a, b) -> Interval.sub (delta_expr env a) (delta_expr env b)
  | Expr.Mul (a, b) -> (
    match (Expr.to_int a, Expr.to_int b) with
    | Some c, _ -> Interval.scale c (delta_expr env b)
    | _, Some c -> Interval.scale c (delta_expr env a)
    | None, None ->
      if delta_free env e then (Fin 0, Fin 0) else (NegInf, PosInf))
  | Expr.Min (a, b) | Expr.Max (a, b) ->
    (* min/max are 1-Lipschitz: the delta lies in the hull of the
       argument deltas. *)
    Interval.hull (delta_expr env a) (delta_expr env b)
  | Expr.Div _ | Expr.Mod _ | Expr.Load _ | Expr.Call _ ->
    if delta_free env e then (Fin 0, Fin 0) else (NegInf, PosInf)

and delta_free env e =
  List.for_all
    (fun v ->
      match List.assoc_opt v env with
      | None | Some (Fin 0, Fin 0) -> true
      | Some _ -> false)
    (Itf_ir.Expr.free_vars e)

(* Per-component deltas of the step-normalized variables the matrix will
   mix, for the dependence vector [d] on [nest]. *)
let grid_of_nest (nest : Itf_ir.Nest.t) (d : t) : Family.grid =
  let module Nest = Itf_ir.Nest in
  let module Expr = Itf_ir.Expr in
  let loops = Array.of_list nest.Nest.loops in
  let n = Array.length loops in
  let loop_vars = Nest.loop_vars nest in
  let grid_exact = Array.make n true in
  let grid_norm = Array.make n (Fin 0, Fin 0) in
  let env = ref [] in
  for k = 0 to min (n - 1) (Array.length d - 1) do
    let l = loops.(k) in
    let step = Expr.to_int l.Nest.step in
    let lo_invariant =
      List.for_all
        (fun v -> not (List.mem v loop_vars))
        (Expr.free_vars l.Nest.lo)
    in
    let value =
      match step with
      | Some s -> value_interval ~step:s ~aligned:lo_invariant d.(k)
      | None -> if is_zero d.(k) then (Fin 0, Fin 0) else (NegInf, PosInf)
    in
    (match step with
    | Some 1 ->
      (* Variable kept by normalization: the matrix sees the value delta,
         which is exactly what the entry denotes at unit step. *)
      grid_norm.(k) <- interval_of_elem d.(k)
    | Some _ when lo_invariant ->
      (* Shared grid origin: counter delta = entry. *)
      grid_norm.(k) <- interval_of_elem d.(k)
    | Some s ->
      grid_exact.(k) <- false;
      let dlo = delta_expr !env l.Nest.lo in
      grid_norm.(k) <- Interval.unscale s (Interval.sub value dlo)
    | None ->
      grid_exact.(k) <- false;
      grid_norm.(k) <-
        (if is_zero d.(k) then (Fin 0, Fin 0) else (NegInf, PosInf)));
    env := (l.Nest.var, value) :: !env
  done;
  { Family.grid_exact; grid_norm }

let unimodular_map ?grid m (d : t) : t =
  let n = Array.length d in
  let exact k =
    match grid with None -> true | Some g -> g.Family.grid_exact.(k)
  in
  let interval k =
    match grid with
    | None -> interval_of_elem d.(k)
    | Some g -> g.Family.grid_norm.(k)
  in
  Array.init n (fun r ->
      let row = Intmat.row m r in
      let nonzero = ref [] in
      Array.iteri (fun k c -> if c <> 0 then nonzero := (k, c) :: !nonzero) row;
      match !nonzero with
      | [] -> Dist 0
      | [ (k, c) ] when exact k ->
        (* Single-term row over a shared-grid component: exact scaling. *)
        elem_scale c d.(k)
      | nz ->
        let acc =
          List.fold_left
            (fun acc (k, c) -> Interval.add acc (Interval.scale c (interval k)))
            (Interval.point 0) nz
        in
        elem_of_interval acc)

(* ------------------------------------------------------------------ *)
(* ReversePermute                                                      *)
(* ------------------------------------------------------------------ *)

let reverse_permute_map rev perm (d : t) : t =
  let n = Array.length d in
  let out = Array.make n (Dist 0) in
  for k = 0 to n - 1 do
    out.(perm.(k)) <- (if rev.(k) then elem_reverse d.(k) else d.(k))
  done;
  out

(* ------------------------------------------------------------------ *)
(* Parallelize                                                         *)
(* ------------------------------------------------------------------ *)

let parmap e = if is_zero e then Dist 0 else elem_union e (elem_reverse e)

let parallelize_map parflag (d : t) : t =
  Array.mapi (fun k e -> if parflag.(k) then parmap e else e) d

(* ------------------------------------------------------------------ *)
(* Block                                                               *)
(* ------------------------------------------------------------------ *)

(* The nonzero part of an entry's direction: the block-loop entry when a
   block boundary is crossed. *)
let dir_nonzero e =
  let s = elem_signs e in
  Dir.of_signs { s with Dir.zero = false }

let blockmap e =
  if is_zero e then [ (Dist 0, Dist 0) ]
  else
    match e with
    | Dir Dir.Any -> [ (dir Dir.Any, dir Dir.Any) ]
    | Dist d when d = 1 || d = -1 ->
      (* Crossing at most one block boundary: the block distance is exact. *)
      [ (Dist 0, e); (Dist d, dir Dir.Any) ]
    | e -> [ (Dist 0, e); (dir (dir_nonzero e), dir Dir.Any) ]

let prefix_zero (d : t) hi = Array.for_all is_zero (Array.sub d 0 hi)

(* Cross product of per-loop pair choices over the band [lo..hi].
   [exact0] tells whether block-alignment is trustworthy at the first band
   loop (the band is rectangular, or every enclosing component of the
   vector is zero so both iterations see identical band bounds); alignment
   for deeper band loops additionally requires the chosen outer-group
   components so far to be exactly zero. *)
let band_fanout pair_map widened ~exact0 ~rectangular lo hi (d : t) =
  let rec go k exact =
    if k > hi then [ ([], []) ]
    else
      let choices = if exact then pair_map d.(k) else widened d.(k) in
      List.concat_map
        (fun ((b, e) : elem * elem) ->
          let exact' = rectangular || (exact && is_zero b) in
          List.map (fun (bs, es) -> (b :: bs, e :: es)) (go (k + 1) exact'))
        choices
  in
  go lo exact0

let block_widened e = [ (dir Dir.Any, e) ]
(* Element-loop variables keep their original values, so the element
   component stays exact; only the block-origin alignment is lost. *)

let block_map ~rectangular i j (d : t) : t list =
  let n = Array.length d in
  let exact0 = rectangular || prefix_zero d i in
  List.map
    (fun (blocks, elems) ->
      Array.concat
        [
          Array.sub d 0 i;
          Array.of_list blocks;
          Array.of_list elems;
          Array.sub d (j + 1) (n - j - 1);
        ])
    (band_fanout blockmap block_widened ~exact0 ~rectangular i j d)

(* ------------------------------------------------------------------ *)
(* Coalesce                                                            *)
(* ------------------------------------------------------------------ *)

let mergedirs elems =
  match elems with
  | [] -> invalid_arg "Depmap.mergedirs: empty"
  | e :: rest ->
    List.fold_left
      (fun acc e ->
        (* While the accumulated outer part is exactly zero, the inner
           entry passes through unchanged (exact distances survive). *)
        if is_zero acc then e
        else dir (Dir.merge_lex (elem_dir acc) (elem_dir e)))
      e rest

let coalesce_map ~rectangular i j (d : t) : t =
  let n = Array.length d in
  (* With a nonzero enclosing component and band bounds that depend on
     enclosing loops, the 0-based renumbering shifts positions arbitrarily:
     the merged component's magnitude and even its sign are unreliable. *)
  let merged =
    if rectangular || prefix_zero d i then
      mergedirs (Array.to_list (Array.sub d i (j - i + 1)))
    else dir Dir.Any
  in
  Array.concat
    [ Array.sub d 0 i; [| merged |]; Array.sub d (j + 1) (n - j - 1) ]

(* ------------------------------------------------------------------ *)
(* Interleave                                                          *)
(* ------------------------------------------------------------------ *)

(* Decompose an iteration-number distance d as  d = phase + F * position
   with unknown interleave factor F and |phase| < F. For d > 0 the
   realizable (phase, position) pairs are (0, +), (+, 0+), (-, +);
   mirrored for d < 0; (0, 0) for d = 0. Sign-unknown entries take the
   union of their sign cases. *)
let imap e =
  let s = elem_signs e in
  let zero_case = if s.Dir.zero then [ (Dist 0, Dist 0) ] else [] in
  let pos_case =
    if s.Dir.pos then
      [
        (Dist 0, dir Dir.Pos);
        (dir Dir.Pos, dir Dir.NonNeg);
        (dir Dir.Neg, dir Dir.Pos);
      ]
    else []
  in
  let neg_case =
    if s.Dir.neg then
      [
        (Dist 0, dir Dir.Neg);
        (dir Dir.Neg, dir Dir.NonPos);
        (dir Dir.Pos, dir Dir.Neg);
      ]
    else []
  in
  (* Merge cases that share a first component to limit fan-out. *)
  let all = zero_case @ pos_case @ neg_case in
  let firsts = List.sort_uniq Stdlib.compare (List.map fst all) in
  List.map
    (fun f ->
      let seconds = List.filter_map (fun (a, b) -> if a = f then Some b else None) all in
      (f, List.fold_left elem_union (List.hd seconds) (List.tl seconds)))
    firsts

(* When phase alignment is lost, the strided variable still carries its
   original value, so its direction survives; the phase is arbitrary. *)
let imap_widened e = [ (dir Dir.Any, dir (elem_dir e)) ]

let interleave_map ~rectangular i j (d : t) : t list =
  let n = Array.length d in
  (* Phase alignment at band loop k requires equal strided-loop lower
     bounds, i.e. zero differences on everything enclosing plus the
     original band components before k (their variables keep original
     values). *)
  let rec fan k =
    if k > j then [ ([], []) ]
    else
      let exact =
        rectangular
        || (prefix_zero d i
           && Array.for_all is_zero (Array.sub d i (k - i)))
      in
      let choices = if exact then imap d.(k) else imap_widened d.(k) in
      List.concat_map
        (fun ((p, s) : elem * elem) ->
          List.map (fun (ps, ss) -> (p :: ps, s :: ss)) (fan (k + 1)))
        choices
  in
  List.map
    (fun (phases, strided) ->
      Array.concat
        [
          Array.sub d 0 i;
          Array.of_list phases;
          Array.of_list strided;
          Array.sub d (j + 1) (n - j - 1);
        ])
    (fan i)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let map_vector ?(rectangular_bands = false) ?nest (t : Template.t) (d : t) :
    t list =
  if Array.length d <> Template.input_depth t then
    invalid_arg "Depmap.map_vector: vector length mismatch";
  let rectangular = rectangular_bands in
  match t with
  | Template.Unimodular { m; _ } ->
    let grid = Option.map (fun nest -> grid_of_nest nest d) nest in
    [ unimodular_map ?grid m d ]
  | Template.Reverse_permute { rev; perm; _ } -> [ reverse_permute_map rev perm d ]
  | Template.Parallelize { parflag; _ } -> [ parallelize_map parflag d ]
  | Template.Block { i; j; _ } -> block_map ~rectangular i j d
  | Template.Coalesce { i; j; _ } -> [ coalesce_map ~rectangular i j d ]
  | Template.Interleave { i; j; _ } -> interleave_map ~rectangular i j d

let map_set ?rectangular_bands ?family t ds =
  let plain rectangular_bands nest =
    Depvec.dedupe
      (List.concat_map (map_vector ?rectangular_bands ?nest t) ds)
  in
  match family with
  | None -> plain rectangular_bands None
  | Some (f : Family.t) -> (
    let rectangular = Family.rectangular_bands f t in
    (* The family's slots describe its own vectors (physically): any
       other set is mapped vector by vector on the family's nest. *)
    match t with
    | Template.Unimodular { m; _ } when ds == f.Family.vectors ->
      let grids =
        Family.cell f.Family.grids (fun () ->
            Array.of_list (List.map (grid_of_nest f.Family.nest) ds))
      in
      Depvec.dedupe (List.mapi (fun k d -> unimodular_map ~grid:grids.(k) m d) ds)
    | Template.Block { i; j; _ } when ds == f.Family.vectors ->
      (* [block_map] never reads the block sizes: the size siblings of
         one band share their image. *)
      Family.band f f.Family.block_image i j (fun () ->
          Depvec.dedupe (List.concat_map (block_map ~rectangular i j) ds))
    | _ -> plain (Some rectangular) (Some f.Family.nest))
