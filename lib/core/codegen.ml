open Itf_ir
module Intmat = Itf_mat.Intmat
module Bmat = Itf_bounds.Bmat
module Fourier = Itf_bounds.Fourier

(* Fresh-name supply seeded with [used], every name already in use:
   the family's name set, or that set plus the step counters of the
   normalized nest. *)
let name_supply names =
  let used = ref names in
  let fresh base =
    let pick =
      if not (List.mem base !used) then base
      else
        let rec go k =
          let cand = Printf.sprintf "%s%d" base k in
          if List.mem cand !used then go (k + 1) else cand
        in
        go 2
    in
    used := pick :: !used;
    pick
  in
  (fresh, used)

(* ------------------------------------------------------------------ *)
(* ReversePermute                                                      *)
(* ------------------------------------------------------------------ *)

(* Last iteration value of a loop: u - ((u - l) mod s). Floor-mod makes
   this correct for either sign of s, so runtime steps need no abs/sgn. *)
let reverse_loop (l : Nest.loop) =
  let last = Expr.sub l.hi (Expr.mod_ (Expr.sub l.hi l.lo) l.step) in
  { l with Nest.lo = last; hi = l.lo; step = Expr.neg l.step }

let reverse_permute nest rev perm =
  let loops = Array.of_list nest.Nest.loops in
  let n = Array.length loops in
  let out = Array.make n loops.(0) in
  for k = 0 to n - 1 do
    out.(perm.(k)) <- (if rev.(k) then reverse_loop loops.(k) else loops.(k))
  done;
  { nest with Nest.loops = Array.to_list out }

(* ------------------------------------------------------------------ *)
(* Parallelize                                                         *)
(* ------------------------------------------------------------------ *)

let parallelize nest parflag =
  {
    nest with
    Nest.loops =
      List.mapi
        (fun k (l : Nest.loop) ->
          if parflag.(k) then { l with Nest.kind = Nest.Pardo } else l)
        nest.Nest.loops;
  }

(* ------------------------------------------------------------------ *)
(* Unimodular                                                          *)
(* ------------------------------------------------------------------ *)

(* Rewrite loops with non-unit constant steps to unit-step loops over
   fresh iteration counters, returning the new nest and the inits that
   recover the original variables. *)
let normalize_steps fresh (nest : Nest.t) =
  let needs =
    List.exists
      (fun (l : Nest.loop) -> Expr.to_int l.Nest.step <> Some 1)
      nest.Nest.loops
  in
  if not needs then (nest, [])
  else begin
    let env = ref [] in
    let inits = ref [] in
    let loops =
      List.map
        (fun (l : Nest.loop) ->
          let lo = Expr.subst !env l.Nest.lo in
          let hi = Expr.subst !env l.Nest.hi in
          match Expr.to_int l.Nest.step with
          | Some 1 ->
            (* Keep the variable; it still needs substituted bounds. *)
            { l with Nest.lo; hi }
          | _ ->
            let t = fresh ("t" ^ l.Nest.var) in
            let value = Expr.add lo (Expr.mul l.Nest.step (Expr.var t)) in
            env := (l.Nest.var, value) :: !env;
            inits := Stmt.Set (l.Nest.var, value) :: !inits;
            (* The iteration-count rewrite below divides by the step and
               orients the far bound by its sign, so it is only exact for a
               nonzero compile-time-constant step. A runtime step would
               silently take the positive-sign branch and produce wrong
               bounds whenever it is negative — reject instead (consistent
               with [block]'s [step_of]). *)
            let step_sign =
              match Expr.to_int l.Nest.step with
              | Some s when s <> 0 -> s
              | Some _ ->
                invalid_arg "Codegen.normalize_steps: zero step"
              | None ->
                invalid_arg "Codegen.normalize_steps: non-constant step"
            in
            (* The iteration count is 1 + floor((u - lo)/s). Push the
               division inside a structured far bound — floor commutes with
               min/max and flips max to min under a negative divisor, so
               the result is always a min of per-term floor-divisions by a
               positive constant (which Fourier-Motzkin handles exactly). *)
            let hi_terms =
              Itf_bounds.Classify.bound_terms Itf_bounds.Classify.Upper
                ~step_sign hi
            in
            let divide term =
              if step_sign > 0 then Expr.div (Expr.sub term lo) l.Nest.step
              else Expr.div (Expr.sub lo term) (Expr.neg l.Nest.step)
            in
            let hi' = Expr.min_list (List.map divide hi_terms) in
            {
              Nest.var = t;
              lo = Expr.zero;
              hi = hi';
              step = Expr.one;
              kind = l.Nest.kind;
            })
        nest.Nest.loops
    in
    ( { nest with Nest.loops; inits = List.rev !inits @ nest.Nest.inits },
      !env )
  end

(* Choose output variable names: a row of M that is a pure (+1) copy of
   input variable v is named vv; other rows take the doubled names of the
   not-yet-claimed variables, outermost first. *)
let unimodular_names fresh m (vars : string array) =
  let n = Array.length vars in
  let names = Array.make n None in
  let claimed = Array.make n false in
  for r = 0 to n - 1 do
    let row = Intmat.row m r in
    let nonzero = ref [] in
    Array.iteri (fun k c -> if c <> 0 then nonzero := (k, c) :: !nonzero) row;
    match !nonzero with
    | [ (k, _) ] when not claimed.(k) ->
      claimed.(k) <- true;
      names.(r) <- Some (fresh (vars.(k) ^ vars.(k)))
    | _ -> ()
  done;
  let next_unclaimed = ref 0 in
  Array.mapi
    (fun _ name ->
      match name with
      | Some s -> s
      | None ->
        while !next_unclaimed < n && claimed.(!next_unclaimed) do
          incr next_unclaimed
        done;
        if !next_unclaimed < n then begin
          let k = !next_unclaimed in
          claimed.(k) <- true;
          fresh (vars.(k) ^ vars.(k))
        end
        else fresh "y")
    names

(* What a Unimodular child reads of its parent and not of its matrix:
   the step-normalized nest, the names in use once its counters are
   named, and its Fourier–Motzkin system. Built once per family; a
   failure is kept and re-raised for every child, as each child would
   have raised it. *)
let normalized (f : Family.t) =
  Family.cell f.Family.unimodular (fun () ->
      match
        let fresh, used = name_supply f.Family.names in
        let nest, _ = normalize_steps fresh f.Family.nest in
        let system = Fourier.nest_system nest in
        { Family.norm_nest = nest; norm_names = !used; norm_system = system }
      with
      | norm -> Ok norm
      | exception e -> Error e)

let unimodular f m minv =
  let { Family.norm_nest = nest; norm_names; norm_system } =
    match normalized f with Ok norm -> norm | Error e -> raise e
  in
  let fresh, _ = name_supply norm_names in
  let vars = Array.of_list (Nest.loop_vars nest) in
  (* A unimodular change of basis mixes iteration coordinates, so any
     parallelism of the input loops has no well-defined image: the output
     loops are all sequential (re-parallelize afterwards if legal). *)
  let kinds = List.map (fun (_ : Nest.loop) -> Nest.Do) nest.Nest.loops in
  let new_vars = unimodular_names fresh m vars in
  let sys = Fourier.substitute norm_system minv new_vars in
  let bounds = Fourier.bounds sys in
  let loops =
    List.mapi
      (fun r kind ->
        let lo, hi = bounds.(r) in
        { Nest.var = new_vars.(r); lo; hi; step = Expr.one; kind })
      kinds
  in
  let inits =
    List.init (Array.length vars) (fun k ->
        let row = Intmat.row minv k in
        let e = ref Expr.zero in
        Array.iteri
          (fun r c ->
            if c <> 0 then
              e := Expr.add !e (Expr.mul (Expr.int c) (Expr.var new_vars.(r))))
          row;
        Stmt.Set (vars.(k), !e))
  in
  { nest with Nest.loops; inits = inits @ nest.Nest.inits }

(* ------------------------------------------------------------------ *)
(* Block                                                               *)
(* ------------------------------------------------------------------ *)

(* Substitute blocked band variables inside a bound term by the block
   endpoint chosen per coefficient sign (paper Table 4's x_min/x_max).
   [block_low.(h)]/[block_high.(h)] are the numeric extremes of band
   variable h over its block; [minimize] selects which to use for a
   positive coefficient. *)
let subst_term_endpoints vars ~i ~loop ~minimize ~block_low ~block_high
    (tm : Bmat.term) =
  let e = ref tm.Bmat.base in
  Array.iteri
    (fun h c ->
      if c <> 0 then begin
        let v =
          if h < i || h >= loop then Expr.var vars.(h)
          else if (c > 0) = minimize then block_low.(h - i)
          else block_high.(h - i)
        in
        e := Expr.add !e (Expr.mul (Expr.int c) v)
      end)
    tm.Bmat.coeffs;
  !e

let block (f : Family.t) nest i j bsize =
  let bm = f.Family.bmat in
  let fresh, _ = name_supply f.Family.names in
  let loops = Array.of_list nest.Nest.loops in
  let n = Array.length loops in
  let vars = Array.map (fun (l : Nest.loop) -> l.Nest.var) loops in
  let width = j - i + 1 in
  let block_vars =
    Array.init width (fun k -> fresh (vars.(i + k) ^ vars.(i + k)))
  in
  let step_of k =
    match Expr.to_int loops.(k).Nest.step with
    | Some s -> s
    | None -> invalid_arg "Codegen.block: non-constant step in band"
  in
  (* Numeric extremes of band variable h over one block: for step s > 0
     the block spans [hh, hh + s*(b-1)]; for s < 0 it is reversed. *)
  let block_low = Array.make width Expr.zero in
  let block_high = Array.make width Expr.zero in
  Array.iteri
    (fun k bv ->
      let s = step_of (i + k) in
      let far =
        Expr.add (Expr.var bv)
          (Expr.mul (Expr.int s) (Expr.sub bsize.(k) Expr.one))
      in
      if s > 0 then begin
        block_low.(k) <- Expr.var bv;
        block_high.(k) <- far
      end
      else begin
        block_low.(k) <- far;
        block_high.(k) <- Expr.var bv
      end)
    block_vars;
  let block_loop k =
    (* Loop over block origins: original bounds widened over enclosing
       blocks, striding by s * bsize. *)
    let pos = i + k in
    let s = step_of pos in
    let lower_terms =
      List.map
        (subst_term_endpoints vars ~i ~loop:pos ~minimize:(s > 0) ~block_low
           ~block_high)
        bm.Bmat.lowers.(pos)
    in
    let upper_terms =
      List.map
        (subst_term_endpoints vars ~i ~loop:pos ~minimize:(s < 0) ~block_low
           ~block_high)
        bm.Bmat.uppers.(pos)
    in
    let lo, hi =
      if s > 0 then (Expr.max_list lower_terms, Expr.min_list upper_terms)
      else (Expr.min_list lower_terms, Expr.max_list upper_terms)
    in
    {
      Nest.var = block_vars.(k);
      lo;
      hi;
      step = Expr.mul loops.(pos).Nest.step bsize.(k);
      kind = loops.(pos).Nest.kind;
    }
  in
  let element_loop k =
    let pos = i + k in
    let l = loops.(pos) in
    let s = step_of pos in
    let near = Expr.var block_vars.(k) in
    (* When the lower bound depends on an enclosing band variable, block
       origins shift with that variable and need not stay on the loop's
       value grid (l + s*m). Alignment holds when |s| = 1 (every integer is
       on the grid) or when no band variable occurs in the lower bound
       (block origins then march from l itself). *)
    let aligned =
      abs s = 1
      || List.for_all
           (fun (tm : Bmat.term) ->
             let ok = ref true in
             Array.iteri
               (fun h c -> if h >= i && c <> 0 then ok := false)
               tm.Bmat.coeffs;
             !ok)
           bm.Bmat.lowers.(pos)
    in
    let lo, hi =
      if aligned then begin
        (* Paper Table 4 form. *)
        let far =
          Expr.add near (Expr.mul (Expr.int s) (Expr.sub bsize.(k) Expr.one))
        in
        if s > 0 then (Expr.max_ near l.Nest.lo, Expr.min_ far l.Nest.hi)
        else (Expr.min_ near l.Nest.lo, Expr.max_ far l.Nest.hi)
      end
      else begin
        (* Grid-snapped form: start at the first grid point inside the
           tile and cover the half-open span of s*bsize values, so every
           tile holds exactly bsize grid points regardless of alignment. *)
        let lb = l.Nest.lo in
        if s > 0 then
          let snapped =
            Expr.add lb
              (Expr.mul (Expr.int s)
                 (Expr.div
                    (Expr.add (Expr.sub near lb) (Expr.int (s - 1)))
                    (Expr.int s)))
          in
          let span_end =
            Expr.sub
              (Expr.add near (Expr.mul (Expr.int s) bsize.(k)))
              Expr.one
          in
          (Expr.max_ lb snapped, Expr.min_ span_end l.Nest.hi)
        else
          let snapped =
            (* largest grid point <= near: l + s * ceil((l - near) / -s) *)
            Expr.add lb
              (Expr.mul (Expr.int s)
                 (Expr.div
                    (Expr.add (Expr.sub lb near) (Expr.int (-s - 1)))
                    (Expr.int (-s))))
          in
          let span_end =
            Expr.add
              (Expr.add near (Expr.mul (Expr.int s) bsize.(k)))
              Expr.one
          in
          (Expr.min_ lb snapped, Expr.max_ span_end l.Nest.hi)
      end
    in
    { l with Nest.lo; hi }
  in
  let out =
    Array.to_list (Array.sub loops 0 i)
    @ List.init width block_loop
    @ List.init width element_loop
    @ Array.to_list (Array.sub loops (j + 1) (n - j - 1))
  in
  { nest with Nest.loops = out }

(* ------------------------------------------------------------------ *)
(* Coalesce                                                            *)
(* ------------------------------------------------------------------ *)

let coalesce (f : Family.t) nest i j =
  let fresh, _ = name_supply f.Family.names in
  let loops = Array.of_list nest.Nest.loops in
  let n = Array.length loops in
  let width = j - i + 1 in
  let band = Array.sub loops i width in
  (* Iteration count of each coalesced loop: (u - l + s) div s, clamped at
     zero so empty loops yield an empty coalesced loop. *)
  let counts =
    Array.map
      (fun (l : Nest.loop) ->
        Expr.max_ Expr.zero
          (Expr.div (Expr.add (Expr.sub l.Nest.hi l.Nest.lo) l.Nest.step) l.Nest.step))
      band
  in
  let total =
    Array.fold_left (fun acc c -> Expr.mul acc c) Expr.one counts
  in
  (* A band containing a statically empty loop coalesces to a loop that
     never runs; its delinearization formulas would divide/mod by a zero
     count, so they are replaced by safe constants below. *)
  let statically_empty =
    Array.exists (fun c -> Expr.to_int c = Some 0) counts
  in
  let initial (l : Nest.loop) =
    if l.Nest.var = "" then "x" else String.make 1 l.Nest.var.[0]
  in
  let cname =
    fresh (String.concat "" (Array.to_list (Array.map initial band)) ^ "c")
  in
  let kind =
    if Array.for_all (fun (l : Nest.loop) -> l.Nest.kind = Nest.Pardo) band
    then Nest.Pardo
    else Nest.Do
  in
  let cloop =
    { Nest.var = cname; lo = Expr.zero; hi = Expr.sub total Expr.one; step = Expr.one; kind }
  in
  (* x_k = l_k + s_k * ((c div prod_{m>k} n_m) mod n_k), 0-based. *)
  let delinearized =
    List.init width (fun k ->
        let l = band.(k) in
        if statically_empty then
          (* The coalesced loop has zero iterations: any well-defined value
             works (the inits never execute), and the original lower bound
             avoids divisions by a statically zero count. *)
          (l.Nest.var, l.Nest.lo)
        else
          let suffix =
            Array.fold_left (fun acc c -> Expr.mul acc c) Expr.one
              (Array.sub counts (k + 1) (width - k - 1))
          in
          let idx = Expr.mod_ (Expr.div (Expr.var cname) suffix) counts.(k) in
          (l.Nest.var, Expr.add l.Nest.lo (Expr.mul l.Nest.step idx)))
  in
  let inits = List.map (fun (v, e) -> Stmt.Set (v, e)) delinearized in
  (* Loops deeper than the coalesced band may reference the coalesced
     variables in their bounds; the init statements run too late for that,
     so inline the delinearization there (the paper's Figure 7 does the
     same via its tmp_j/tmp_i formulas). *)
  let fix_suffix (l : Nest.loop) =
    {
      l with
      Nest.lo = Expr.subst delinearized l.Nest.lo;
      hi = Expr.subst delinearized l.Nest.hi;
      step = Expr.subst delinearized l.Nest.step;
    }
  in
  let out =
    Array.to_list (Array.sub loops 0 i)
    @ [ cloop ]
    @ List.map fix_suffix (Array.to_list (Array.sub loops (j + 1) (n - j - 1)))
  in
  { nest with Nest.loops = out; inits = inits @ nest.Nest.inits }

(* ------------------------------------------------------------------ *)
(* Interleave                                                          *)
(* ------------------------------------------------------------------ *)

let interleave (f : Family.t) nest i j isize =
  let fresh, _ = name_supply f.Family.names in
  let loops = Array.of_list nest.Nest.loops in
  let n = Array.length loops in
  let width = j - i + 1 in
  let phase_vars =
    Array.init width (fun k -> fresh (loops.(i + k).Nest.var ^ "p"))
  in
  let phase_loop k =
    {
      Nest.var = phase_vars.(k);
      lo = Expr.zero;
      hi = Expr.sub isize.(k) Expr.one;
      step = Expr.one;
      kind = loops.(i + k).Nest.kind;
    }
  in
  let strided_loop k =
    let l = loops.(i + k) in
    {
      l with
      Nest.lo = Expr.add l.Nest.lo (Expr.mul (Expr.var phase_vars.(k)) l.Nest.step);
      step = Expr.mul isize.(k) l.Nest.step;
    }
  in
  let out =
    Array.to_list (Array.sub loops 0 i)
    @ List.init width phase_loop
    @ List.init width strided_loop
    @ Array.to_list (Array.sub loops (j + 1) (n - j - 1))
  in
  { nest with Nest.loops = out }

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let apply ?family nest (t : Template.t) =
  if Nest.depth nest <> Template.input_depth t then
    invalid_arg "Codegen.apply: nest depth does not match template";
  let family () =
    match family with Some f -> f | None -> Family.make nest []
  in
  match t with
  | Template.Unimodular { m; minv; _ } -> unimodular (family ()) m minv
  | Template.Reverse_permute { rev; perm; _ } -> reverse_permute nest rev perm
  | Template.Parallelize { parflag; _ } -> parallelize nest parflag
  | Template.Block { i; j; bsize; _ } -> block (family ()) nest i j bsize
  | Template.Coalesce { i; j; _ } -> coalesce (family ()) nest i j
  | Template.Interleave { i; j; isize; _ } -> interleave (family ()) nest i j isize
