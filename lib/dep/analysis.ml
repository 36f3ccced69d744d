open Itf_ir
module Affine = Itf_bounds.Affine
module Intmat = Itf_mat.Intmat

type kind = Flow | Anti | Output

type dependence = { array : string; kind : kind; vector : Depvec.t }

(* Extended integers and intervals, for Banerjee-style feasibility. *)
type ext = Interval.ext = NegInf | Fin of int | PosInf

(* ------------------------------------------------------------------ *)
(* Loop normalization                                                  *)
(* ------------------------------------------------------------------ *)

(* Iteration counts and bounds in normalized iteration-number space:
   x_k = l_k + s_k * t_k with t_k in [0 .. count_k - 1]. *)
type loop_info = {
  tvar : string;
  count : int option; (* None: statically unknown (symbolic bounds) *)
}

let loop_infos (nest : Nest.t) =
  List.mapi
    (fun k (l : Nest.loop) ->
      let tvar = Printf.sprintf "$t%d" k in
      let count =
        match (Expr.to_int l.lo, Expr.to_int l.hi, Expr.to_int l.step) with
        | Some lo, Some hi, Some s when s <> 0 ->
          Some (max 0 (Expr.fdiv (hi - lo) s + 1))
        | _ -> None
      in
      (l, { tvar; count }))
    nest.Nest.loops

(* The box of t_k and the delta range for a direction choice. *)
let t_box info : Interval.t =
  match info.count with
  | Some c -> (Fin 0, Fin (c - 1))
  | None -> (Fin 0, PosInf)

let delta_range info sigma : Interval.t =
  let span = match info.count with Some c -> Fin (c - 1) | None -> PosInf in
  match sigma with
  | 0 -> (Fin 0, Fin 0)
  | 1 -> (Fin 1, span)
  | _ -> Interval.neg (Fin 1, span)

(* ------------------------------------------------------------------ *)
(* Reference collection                                                *)
(* ------------------------------------------------------------------ *)

type ref_ = { arr : string; subs : Expr.t list; write : bool }

let rec loads_of_expr ~scalars (e : Expr.t) acc =
  match e with
  | Int _ -> acc
  | Var v ->
    (* A read of a scalar that the body also assigns is a dependence
       endpoint: model scalars as 0-dimensional arrays. *)
    if List.mem v scalars then { arr = v; subs = []; write = false } :: acc
    else acc
  | Neg a -> loads_of_expr ~scalars a acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
    loads_of_expr ~scalars a (loads_of_expr ~scalars b acc)
  | Load { array; index } ->
    List.fold_right (loads_of_expr ~scalars) index
      ({ arr = array; subs = index; write = false } :: acc)
  | Call (_, args) -> List.fold_right (loads_of_expr ~scalars) args acc

let rec refs_of_stmt ~scalars (s : Stmt.t) =
  match s with
  | Stmt.Store ({ array; index }, rhs) ->
    { arr = array; subs = index; write = true }
    :: List.fold_right (loads_of_expr ~scalars) index
         (loads_of_expr ~scalars rhs [])
  | Stmt.Set (v, rhs) ->
    { arr = v; subs = []; write = true } :: loads_of_expr ~scalars rhs []
  | Stmt.Guard { lhs; rhs; body; _ } ->
    (* a guarded access may execute: treat it as unconditional (may-dep) *)
    loads_of_expr ~scalars lhs
      (loads_of_expr ~scalars rhs
         (List.concat_map (refs_of_stmt ~scalars) body))

(* ------------------------------------------------------------------ *)
(* Per-reference subscript preparation                                 *)
(* ------------------------------------------------------------------ *)

(* Note on non-rectangular nests: the normalization environment maps each
   index variable to [lo + step * t], but a triangular lower bound keeps
   its outer-variable references un-normalized, so source and sink bases
   share those {e residual} symbols. Subtracting the bases then conflates
   per-iteration quantities of two different iterations; the subtraction
   is still exact at the {e value} level (a strong-SIV pair
   [a x + beta = a x' + beta'] pins the value difference [x' - x]
   regardless of the residuals), but any reasoning in iteration-counter
   space — GCD over [a * step] coefficients, step divisibility, Banerjee
   intervals over counter boxes — silently assumes the residuals are
   equal, i.e. that the two iterations agree on the outer loops. An
   earlier version made exactly that mistake: under [do j = i, i + 3, 3]
   it proved [b(j + 1)] and [b(j - 3)] independent by step divisibility
   ([3 dt = 4]) even though the [i]-shifted value grids intersect one
   outer iteration apart (found by the differential fuzz harness, see
   test/corpus). Equations whose bases carry residuals are therefore
   screened only at the value level ({!screen_and_pin}) and excluded from
   the counter-space interval test; the rational Fourier-Motzkin
   refinement ({!fm_system}), which renormalizes source and sink
   independently, recovers precision for the non-rectangular cases. *)
type sub_info = {
  coeffs : int array; (* coefficient of t_k *)
  base : Expr.t;
  affine : bool;
}

let prep_sub infos (e : Expr.t) =
  let n = List.length infos in
  let env =
    List.map
      (fun ((l : Nest.loop), info) ->
        (l.Nest.var, Expr.add l.Nest.lo (Expr.mul l.Nest.step (Expr.var info.tvar))))
      infos
  in
  let tvars = List.map (fun (_, i) -> i.tvar) infos in
  let s = Affine.split ~vars:tvars (Expr.subst env e) in
  let coeffs = Array.make n 0 in
  List.iteri (fun k tv -> coeffs.(k) <- Affine.coeff s tv) tvars;
  { coeffs; base = s.Affine.base; affine = Affine.is_affine s }

(* ------------------------------------------------------------------ *)
(* Pair analysis                                                       *)
(* ------------------------------------------------------------------ *)

type dim_eq = {
  ok : bool; (* affine subscripts with a known constant base difference *)
  residual : bool; (* a base mentions an original loop variable *)
  ca : int array; (* coefficients of source iteration t *)
  cb : int array; (* coefficients of sink iteration t' *)
  c : int; (* constant: sum ca.t - sum cb.t' + c = 0 *)
}

(* [Exact d]: grid-aligned distance — the value difference of loop [k] is
   exactly [d * step_k] (equivalently, counter distance [d] when the
   grids align). [Valued q]: the value difference is exactly [q], but [q]
   is not a multiple of the step (possible only across shifted grids), so
   no [Dist] component can express it. *)
type pin = Unknown | Exact of int | Valued of int

exception Independent

let dim_equations infos (a : ref_) (b : ref_) =
  let loop_vars = List.map (fun ((l : Nest.loop), _) -> l.Nest.var) infos in
  let mentions_loop_var e =
    List.exists (fun v -> Expr.mentions v e) loop_vars
  in
  List.map2
    (fun sa sb ->
      let sa = prep_sub infos sa and sb = prep_sub infos sb in
      if not (sa.affine && sb.affine) then
        { ok = false; residual = false; ca = [||]; cb = [||]; c = 0 }
      else
        (* Constant base difference: split the subtraction over all its
           free variables so that common symbolic terms (e.g. the loop
           bound [n] introduced by normalization) cancel exactly. *)
        let diff = Expr.sub sa.base sb.base in
        let s = Affine.split ~vars:(Expr.free_vars diff) diff in
        match (s.Affine.coeffs, Expr.to_int s.Affine.base) with
        | [], Some c ->
          let residual = mentions_loop_var sa.base || mentions_loop_var sb.base in
          { ok = true; residual; ca = sa.coeffs; cb = sb.coeffs; c }
        | _ -> { ok = false; residual = false; ca = [||]; cb = [||]; c = 0 })
    a.subs b.subs

let set_pin pins k p =
  (* Two dimensions may pin the same loop; inconsistent pins prove
     independence. [Exact d] and [Valued q] describe the same value
     difference when [q = d * step], but [Valued] is only produced when
     the step does not divide it, so any mix is a conflict. *)
  match (pins.(k), p) with
  | Unknown, p -> pins.(k) <- p
  | Exact d, Exact d' -> if d <> d' then raise Independent
  | Valued q, Valued q' -> if q <> q' then raise Independent
  | Exact _, Valued _ | Valued _, Exact _ -> raise Independent
  | _, Unknown -> ()

(* ZIV + GCD screening, and exact per-loop distance pinning. Raises
   [Independent] when some dimension can never be satisfied.

   Residual equations (bases sharing original loop variables between
   source and sink) are screened at the VALUE level only: with matching
   coefficients the equation reads [sum_k alpha_k * (x'_k - x_k) = c]
   over arbitrary integer value differences, so the GCD runs over the
   [alpha_k = ca_k / step_k] and a strong-SIV pair pins the value
   difference [c / alpha] — which yields a [Dist] only when the step
   divides it. Counter-space reasoning (GCD over [alpha * step], step
   divisibility) would be unsound there: shifted grids still intersect at
   non-multiples of the step. *)
let screen_and_pin infos n (eqs : dim_eq list) =
  let steps =
    Array.of_list
      (List.map (fun ((l : Nest.loop), _) -> Expr.to_int l.Nest.step) infos)
  in
  let pins = Array.make n Unknown in
  List.iter
    (fun eq ->
      if eq.ok then begin
        let nonzero =
          List.concat
            (List.init n (fun k ->
                 (if eq.ca.(k) <> 0 then [ `A k ] else [])
                 @ if eq.cb.(k) <> 0 then [ `B k ] else []))
        in
        (* ZIV: no index variables at all (residuals imply a nonzero
           coefficient, so ZIV equations never carry them). *)
        if nonzero = [] && eq.c <> 0 then raise Independent;
        if not eq.residual then begin
          (* GCD test in counter space. *)
          let g =
            Array.fold_left Intmat.gcd (Array.fold_left Intmat.gcd 0 eq.ca) eq.cb
          in
          if g > 0 && eq.c mod g <> 0 then raise Independent;
          (* Strong SIV: a*t_k - a*t'_k + c = 0 pins delta_k = c / a. *)
          match nonzero with
          | [ `A k; `B k' ] when k = k' && eq.ca.(k) = eq.cb.(k) ->
            let a = eq.ca.(k) in
            if eq.c mod a <> 0 then raise Independent;
            set_pin pins k (Exact (eq.c / a))
          | _ -> ()
        end
        else if Array.for_all2 ( = ) eq.ca eq.cb then begin
          (* Value-level screens; need alpha_k = ca_k / step_k. *)
          let alphas =
            Array.init n (fun k ->
                if eq.ca.(k) = 0 then Some 0
                else
                  match steps.(k) with
                  | Some s when s <> 0 -> Some (eq.ca.(k) / s)
                  | _ -> None)
          in
          if Array.for_all Option.is_some alphas then begin
            let alphas = Array.map Option.get alphas in
            let g = Array.fold_left Intmat.gcd 0 alphas in
            if g > 0 && eq.c mod g <> 0 then raise Independent;
            match nonzero with
            | [ `A k; `B k' ] when k = k' ->
              let alpha = alphas.(k) in
              if eq.c mod alpha <> 0 then raise Independent;
              let q = eq.c / alpha in
              let s = Option.get steps.(k) in
              if q mod s = 0 then set_pin pins k (Exact (q / s))
              else set_pin pins k (Valued q)
            | _ -> ()
          end
        end
      end)
    eqs;
  pins

let sigma_feasible infos (pins : pin array) eqs (sigma : int array) =
  List.for_all
    (fun eq ->
      (not eq.ok)
      ||
      let iv = ref (Interval.point 0) in
      List.iteri
        (fun k (_, info) ->
          let drange =
            match pins.(k) with
            | Exact d -> Interval.point d
            | Unknown | Valued _ -> delta_range info sigma.(k)
          in
          let contrib =
            Interval.add
              (Interval.scale (eq.ca.(k) - eq.cb.(k)) (t_box info))
              (Interval.scale (-eq.cb.(k)) drange)
          in
          iv := Interval.add !iv contrib)
        infos;
      Interval.contains !iv (-eq.c))
    eqs

(* ------------------------------------------------------------------ *)
(* Exact refinement by Fourier-Motzkin feasibility                     *)
(* ------------------------------------------------------------------ *)

module Fourier = Itf_bounds.Fourier

(* Fully-normalized value of each index variable over the t vars: bound
   references to outer variables are substituted through, so (unlike
   {!prep_sub}) source and sink never share per-iteration symbols. *)
let full_env infos =
  List.fold_left
    (fun env ((l : Nest.loop), info) ->
      let lo = Expr.subst env l.Nest.lo in
      (l.Nest.var, Expr.add lo (Expr.mul l.Nest.step (Expr.var info.tvar)))
      :: env)
    [] infos

(* The decoupled interval test ignores the coupling that triangular bounds
   introduce (e.g. LU's i >= k + 1 forces the k-distance of its a(i,k)
   accesses to be positive). When some bound references a loop variable,
   refine each surviving direction vector with a full rational
   Fourier-Motzkin feasibility check over source (t) and sink (u)
   iteration variables: value-level bound constraints, the sigma/pin
   constraints, and the subscript equalities, all affine with symbolic
   invariant parts. Sound: only rationally-infeasible vectors are pruned.
   [fm_system infos pins a b] builds what the pair's systems share, and
   returns the system of each sign vector. *)
let fm_system infos (pins : pin array) (a : ref_) (b : ref_) =
  let n = List.length infos in
  let tvars = Array.of_list (List.map (fun (_, i) -> i.tvar) infos) in
  let uvars = Array.map (fun tv -> "$u" ^ String.sub tv 2 (String.length tv - 2)) tvars in
  let vars = Array.append tvars uvars in
  let env = full_env infos in
  (* split an expression over the t vars; [primed] shifts to the u copy *)
  let split ~primed (e : Expr.t) =
    let s = Affine.split ~vars:(Array.to_list tvars) e in
    if not (Affine.is_affine s) then None
    else begin
      let coeffs = Array.make (2 * n) 0 in
      Array.iteri
        (fun k tv ->
          coeffs.((if primed then n else 0) + k) <- Affine.coeff s tv)
        tvars;
      Some (coeffs, s.Affine.base)
    end
  in
  (* Rows are prepended, so each group lists its rows newest first. A
     system is [subscripts @ sigma @ bounds]: the bounds and subscript
     rows are the pair's, built once; only the sigma rows vary. *)
  let rows = ref [] in
  let add coeffs base = rows := Fourier.ineq coeffs base :: !rows in
  (* e >= 0 constraints, in both the source and the sink copy *)
  let add_nonneg (e : Expr.t) =
    List.iter
      (fun primed ->
        match split ~primed e with
        | Some (coeffs, base) -> add coeffs base
        | None -> ())
      [ false; true ]
  in
  (* bounds of each loop, at the value level *)
  List.iter
    (fun ((l : Nest.loop), info) ->
      let x = Expr.subst env (Expr.var l.Nest.var) in
      (* iteration counters are non-negative *)
      add_nonneg (Expr.var info.tvar);
      match Expr.to_int l.Nest.step with
      | Some s when s <> 0 ->
        let lower_terms = Itf_bounds.Classify.bound_terms Itf_bounds.Classify.Lower ~step_sign:s l.Nest.lo in
        let upper_terms = Itf_bounds.Classify.bound_terms Itf_bounds.Classify.Upper ~step_sign:s l.Nest.hi in
        List.iter
          (fun term ->
            let term = Expr.subst env term in
            if s > 0 then add_nonneg (Expr.sub x term)
            else add_nonneg (Expr.sub term x))
          lower_terms;
        List.iter
          (fun term ->
            let term = Expr.subst env term in
            if s > 0 then add_nonneg (Expr.sub term x)
            else add_nonneg (Expr.sub x term))
          upper_terms
      | _ -> ())
    infos;
  let bounds = !rows in
  rows := [];
  (* subscript equalities, fully normalized *)
  List.iter2
    (fun sub_a sub_b ->
      match
        ( split ~primed:false (Expr.subst env sub_a),
          split ~primed:true (Expr.subst env sub_b) )
      with
      | Some (ca, base_a), Some (cb, base_b) -> (
        let diff = Expr.sub base_a base_b in
        let s = Affine.split ~vars:(Expr.free_vars diff) diff in
        match (s.Affine.coeffs, Expr.to_int s.Affine.base) with
        | [], Some c ->
          let h = Array.init (2 * n) (fun k -> ca.(k) - cb.(k)) in
          add h (Expr.int c);
          add (Array.map (fun x -> -x) h) (Expr.int (-c))
        | _ -> ())
      | _ -> ())
    a.subs b.subs;
  let subs = !rows in
  (* Sigma / pin constraints. [Exact]/[Valued] pins and sigmas all speak
     about the VALUE difference X'_k - X_k (whose affine bases cancel
     exactly under the full normalization): [Exact d] means [d * step],
     [Valued q] means [q], and a sigma constrains the value-difference
     sign corrected for execution direction. Everything but the sign is
     the pair's, so each dimension's difference row is built once. *)
  let dims =
    List.map
      (fun ((l : Nest.loop), _) ->
        let x = Expr.subst env (Expr.var l.Nest.var) in
        match (split ~primed:false x, split ~primed:true x) with
        | Some (ct, _), Some (cu, _) ->
          let step = Expr.to_int l.Nest.step in
          let step_sign = match step with Some st -> compare st 0 | None -> 1 in
          let step_mag = match step with Some st -> abs st | None -> 1 in
          (* A sigma is a counter-order direction; it determines the
             value-difference sign only when the loop's grids align
             (invariant lower bound). For shifted grids leave the
             dimension unconstrained — conservative. *)
          let invariant_lo =
            not
              (List.exists
                 (fun ((l' : Nest.loop), _) -> Expr.mentions l'.Nest.var l.Nest.lo)
                 infos)
          in
          Some
            ( Array.init (2 * n) (fun i -> cu.(i) - ct.(i)),
              step_sign,
              step_mag,
              invariant_lo )
        | _ -> None)
      infos
    |> Array.of_list
  in
  fun sigma ->
    rows := [];
    Array.iteri
      (fun k s ->
        match dims.(k) with
        | None -> ()
        | Some (dcoeffs, step_sign, step_mag, invariant_lo) -> (
          let ge_const c =
            (* X' - X - c >= 0 *)
            add dcoeffs (Expr.int (-c))
          in
          let le_const c =
            (* c - (X' - X) >= 0 *)
            add (Array.map (fun v -> -v) dcoeffs) (Expr.int c)
          in
          match pins.(k) with
          | Exact d ->
            let dv = d * step_mag * step_sign in
            ge_const dv;
            le_const dv
          | Valued q ->
            (* exact value difference; the counter direction (sigma) is
               genuinely unconstrained across shifted grids *)
            ge_const q;
            le_const q
          | Unknown ->
            if invariant_lo then begin
              if s = 0 then begin
                ge_const 0;
                le_const 0
              end
              else if s * step_sign > 0 then ge_const 1
              else le_const (-1)
            end))
      sigma;
    { Fourier.vars; ineqs = subs @ !rows @ bounds }

(* All sign vectors in {-1,0,1}^n whose first nonzero entry is +1 and which
   agree with the pins. *)
let lex_positive_sigmas n (pins : pin array) =
  let out = ref [] in
  let sigma = Array.make n 0 in
  let rec go k any_nonzero =
    if k = n then begin
      if any_nonzero then out := Array.copy sigma :: !out
    end
    else
      let choices =
        match pins.(k) with
        | Exact d -> [ compare d 0 ]
        | Unknown | Valued _ -> if any_nonzero then [ -1; 0; 1 ] else [ 0; 1 ]
      in
      List.iter
        (fun s ->
          if s >= 0 || any_nonzero then begin
            sigma.(k) <- s;
            go (k + 1) (any_nonzero || s <> 0);
            sigma.(k) <- 0
          end)
        choices
  in
  go 0 false;
  !out

let vector_of_sigma infos (pins : pin array) (sigma : int array) : Depvec.t =
  let step_signs =
    Array.of_list
      (List.map
         (fun ((l : Nest.loop), _) ->
           match Expr.to_int l.Nest.step with Some s -> compare s 0 | None -> 1)
         infos)
  in
  Array.mapi
    (fun k s ->
      match pins.(k) with
      | Exact d -> Depvec.dist d
      | Valued q ->
        (* the value difference is exactly [q], but never a step multiple,
           so only the execution-direction-corrected sign is expressible *)
        Depvec.dir (if q * step_signs.(k) > 0 then Dir.Pos else Dir.Neg)
      | Unknown ->
        if s = 0 then Depvec.dist 0
        else Depvec.dir (if s > 0 then Dir.Pos else Dir.Neg))
    sigma

(* Merge vectors differing in exactly one component (componentwise union is
   then exact); iterate to a fixpoint to re-compact the sign enumeration. *)
let rec merge_pass (vs : Depvec.t list) =
  let merged = ref false in
  let try_merge (a : Depvec.t) (b : Depvec.t) =
    if Array.length a <> Array.length b then None
    else begin
      let diff = ref [] in
      Array.iteri (fun k ea -> if ea <> b.(k) then diff := k :: !diff) a;
      match !diff with
      | [ k ] ->
        let u = Array.copy a in
        u.(k) <- Depvec.elem_union a.(k) b.(k);
        Some u
      | _ -> None
    end
  in
  let rec go acc = function
    | [] -> List.rev acc
    | v :: rest -> (
      let rec find_partner seen = function
        | [] -> None
        | w :: ws -> (
          match try_merge v w with
          | Some u -> Some (u, List.rev_append seen ws)
          | None -> find_partner (w :: seen) ws)
      in
      match find_partner [] rest with
      | Some (u, rest') ->
        merged := true;
        go acc (u :: rest')
      | None -> go (v :: acc) rest)
  in
  let vs' = go [] (List.sort_uniq Depvec.compare vs) in
  if !merged then merge_pass vs' else vs'

(* Refutations of one analysis, by system. The pairs of a nest often
   build the same system (LU's 19 refutations have 9 distinct systems),
   so each distinct one is refuted once. The table lives in one
   [dependences] call: it is never keyed across nests, whose systems
   name their own loop variables and subscripts. *)
module Systems = Hashtbl.Make (struct
  type t = Fourier.system

  let equal (a : t) b = a = b

  (* Every row counts: the systems of one pair differ only in their
     middle (sign) rows. *)
  let hash (s : t) =
    List.fold_left
      (fun h (q : Fourier.ineq) ->
        Array.fold_left (fun h c -> (h * 31) + c) ((h * 31) + Expr.hash q.base) q.coeffs)
      0 s.ineqs
    land max_int
end)

let refuter () =
  let table = Systems.create 16 in
  fun system ->
    match Systems.find_opt table system with
    | Some refuted -> refuted
    | None ->
      let refuted = Fourier.definitely_infeasible system in
      Systems.add table system refuted;
      refuted

let pair_vectors ?(fm_calls = ref 0)
    ?(refute = fun system -> Fourier.definitely_infeasible system) infos n
    (a : ref_) (b : ref_) =
  if List.length a.subs <> List.length b.subs then
    (* Mismatched arity: treat as potentially aliasing everywhere. *)
    [ Array.init n (fun _ -> Depvec.dir Dir.Any) ]
  else
    match
      let eqs = dim_equations infos a b in
      let pins = screen_and_pin infos n eqs in
      Some (eqs, pins)
    with
    | exception Independent -> []
    | None -> []
    | Some (eqs, pins) ->
      (* Residual equations are sound only at the value level (their
         screens already ran); hide them from the counter-space interval
         test. *)
      let eqs =
        List.map (fun eq -> if eq.residual then { eq with ok = false } else eq) eqs
      in
      let pin_in_range k = function
        | Unknown | Valued _ -> true
        | Exact d -> (
          match (List.nth infos k |> snd).count with
          | Some c -> abs d <= c - 1
          | None -> true)
      in
      if not (Array.for_all Fun.id (Array.mapi pin_in_range pins)) then []
      else
        (* Refinement only pays when some bound couples loop variables. *)
        let non_rectangular =
          List.exists
            (fun ((l : Nest.loop), _) ->
              let mentions_loop e =
                List.exists
                  (fun ((l' : Nest.loop), _) ->
                    Expr.mentions l'.Nest.var e)
                  infos
              in
              mentions_loop l.Nest.lo || mentions_loop l.Nest.hi)
            infos
        in
        let system = lazy (fm_system infos pins a b) in
        let sigmas =
          List.filter
            (fun sigma ->
              sigma_feasible infos pins eqs sigma
              && not
                   (non_rectangular
                   && (incr fm_calls;
                       refute (Lazy.force system sigma))))
            (lex_positive_sigmas n pins)
        in
        merge_pass (List.map (vector_of_sigma infos pins) sigmas)

let dependences ?fm_calls (nest : Nest.t) =
  let infos = loop_infos nest in
  let n = List.length infos in
  let scalars = List.concat_map Stmt.defined_vars nest.Nest.body in
  let refs = List.concat_map (refs_of_stmt ~scalars) nest.Nest.body in
  let refute = refuter () in
  let out = ref [] in
  List.iter
    (fun (a : ref_) ->
      List.iter
        (fun (b : ref_) ->
          if a.arr = b.arr && (a.write || b.write) then begin
            let kind =
              match (a.write, b.write) with
              | true, true -> Output
              | true, false -> Flow
              | false, true -> Anti
              | false, false -> assert false
            in
            List.iter
              (fun vector -> out := { array = a.arr; kind; vector } :: !out)
              (pair_vectors ?fm_calls ~refute infos n a b)
          end)
        refs)
    refs;
  List.sort_uniq compare (List.rev !out)

(* Memoized by interned-nest id: dependence analysis is pure in the nest
   and costs milliseconds, while searches (and repeated searches over the
   same kernel) re-ask for the same nest's vectors constantly. The compute
   runs outside the table lock; racing domains recompute the same
   deterministic list, so either store wins. *)
module VMemo = Itf_mat.Hashcons.Memo (Itf_mat.Hashcons.Int_key)

(* The warm set is one entry per hot root nest; the cap bounds what a
   stream of novel nests can pin. *)
let vectors_cap = 1024

let vectors_memo : Depvec.t list VMemo.t =
  VMemo.create ~max_size:vectors_cap "dep.vectors"

let vectors ?fm_calls nest =
  VMemo.find_or_add vectors_memo (Itf_ir.Intern.nest_id nest) (fun () ->
      Depvec.dedupe
        (List.map (fun d -> d.vector) (dependences ?fm_calls nest)))

(* ------------------------------------------------------------------ *)
(* Statement-level dependences                                         *)
(* ------------------------------------------------------------------ *)

type statement_edge = { src : int; dst : int; carried : bool }

(* Is a same-iteration (all-zero) conflict between the two references
   feasible? *)
let zero_feasible infos n a b =
  List.length a.subs = List.length b.subs
  &&
  match
    let eqs = dim_equations infos a b in
    let pins = screen_and_pin infos n eqs in
    (eqs, pins)
  with
  | exception Independent -> false
  | eqs, pins ->
    (* A [Valued] pin means the value difference is nonzero, so the two
       references never collide in the same iteration. *)
    Array.for_all
      (function Unknown | Exact 0 -> true | Exact _ | Valued _ -> false)
      pins
    && sigma_feasible infos pins
         (List.map (fun eq -> if eq.residual then { eq with ok = false } else eq) eqs)
         (Array.make n 0)

(* Lex-positive (carried) conflict from [a]'s iteration to a later
   iteration of [b]? *)
let carried_feasible infos n a b = pair_vectors infos n a b <> []

let statement_edges (nest : Nest.t) =
  let infos = loop_infos nest in
  let n = List.length infos in
  let scalars = List.concat_map Stmt.defined_vars nest.Nest.body in
  let tagged =
    List.concat
      (List.mapi
         (fun idx s -> List.map (fun r -> (idx, r)) (refs_of_stmt ~scalars s))
         nest.Nest.body)
  in
  let edges = Hashtbl.create 16 in
  List.iter
    (fun (p, a) ->
      List.iter
        (fun (q, b) ->
          if a.arr = b.arr && (a.write || b.write) then begin
            if carried_feasible infos n a b then
              Hashtbl.replace edges (p, q, true) ();
            (* loop-independent: source textually first *)
            if p < q && zero_feasible infos n a b then
              Hashtbl.replace edges (p, q, false) ()
          end)
        tagged)
    tagged;
  Hashtbl.fold (fun (src, dst, carried) () acc -> { src; dst; carried } :: acc)
    edges []
  |> List.sort compare

let fusion_preventing (nest : Nest.t) ~first ~second =
  let infos = loop_infos nest in
  let n = List.length infos in
  (* Scalars of either body count: a shared temporary serializes. *)
  let scalars = List.concat_map Stmt.defined_vars (first @ second) in
  let refs body = List.concat_map (refs_of_stmt ~scalars) body in
  let firsts = refs first and seconds = refs second in
  List.exists
    (fun b ->
      List.exists
        (fun a ->
          b.arr = a.arr && (b.write || a.write)
          && carried_feasible infos n b a)
        firsts)
    seconds

let pp_kind ppf = function
  | Flow -> Format.pp_print_string ppf "flow"
  | Anti -> Format.pp_print_string ppf "anti"
  | Output -> Format.pp_print_string ppf "output"

let pp_dependence ppf d =
  Format.fprintf ppf "%a %s %a" pp_kind d.kind d.array Depvec.pp d.vector
