open Itf_ir
module Bmat = Itf_bounds.Bmat
module Btype = Itf_bounds.Btype
module Access = Itf_bounds.Access
module Fourier = Itf_bounds.Fourier
module Depvec = Itf_dep.Depvec
module Interval = Itf_dep.Interval

type grid = { grid_exact : bool array; grid_norm : Interval.t array }

type normalized = {
  norm_nest : Nest.t;
  norm_names : string list;
  norm_system : Fourier.system;
}

type t = {
  nest : Nest.t;
  vectors : Depvec.t list;
  bmat : Bmat.t;
  names : string list;
  defines_scalar : bool;
  refs : source;
  unimodular : (normalized, exn) result option Atomic.t;
  unimodular_check : Boundsmap.violation list option Atomic.t;
  grids : grid array option Atomic.t;
  rectangular : bool option array;
  block_check : Boundsmap.violation list option array;
  coalesce_check : Boundsmap.violation list option array;
  block_image : Depvec.t list option array;
}

and source = {
  forms_nest : Nest.t;
  cell : Access.t option Atomic.t;
  mutable from : origin;
}

and origin = Own | Inherit of source | Map of source * Template.t

type provenance = Inherited | Mapped | Computed | Stored

let make ?(origin = Own) nest vectors =
  let n = Nest.depth nest in
  let bands () = Array.make (n * n) None in
  {
    nest;
    vectors;
    bmat = Bmat.of_nest nest;
    names = Nest.all_vars nest;
    defines_scalar =
      List.exists
        (fun s -> Stmt.defined_vars s <> [])
        (nest.Nest.inits @ nest.Nest.body);
    refs =
      (match origin with
      | Inherit src -> src
      | Own | Map _ -> { forms_nest = nest; cell = Atomic.make None; from = origin });
    unimodular = Atomic.make None;
    unimodular_check = Atomic.make None;
    grids = Atomic.make None;
    rectangular = bands ();
    block_check = bands ();
    coalesce_check = bands ();
    block_image = bands ();
  }

(* Every slot is a memo of a pure function of the family's nest and
   vectors (and, for the band slots, of the band): a racing fill stores
   an equal value, and a reader sees a slot empty or filled. *)
let cell c f =
  match Atomic.get c with
  | Some x -> x
  | None ->
    let x = f () in
    Atomic.set c (Some x);
    x

let band f slots i j compute =
  let k = (i * Bmat.depth f.bmat) + j in
  match slots.(k) with
  | Some x -> x
  | None ->
    let x = compute () in
    slots.(k) <- Some x;
    x

(* Is the band [i..j] rectangular — bounds and steps invariant in every
   enclosing loop variable? Controls whether Table 2's exact band
   entries are trustworthy (see {!Depmap.map_vector}). *)
let rectangular_band f i j =
  band f f.rectangular i j (fun () ->
      let ok = ref true in
      for m = i to j do
        for k = 0 to m - 1 do
          List.iter
            (fun w ->
              if not (Btype.leq (Bmat.btype f.bmat w ~loop:m ~wrt:k) Btype.Invar)
              then ok := false)
            [ Bmat.L; Bmat.U; Bmat.S ]
        done
      done;
      !ok)

let rectangular_bands f (t : Template.t) =
  match t with
  | Template.Block { i; j; _ }
  | Template.Coalesce { i; j; _ }
  | Template.Interleave { i; j; _ } -> rectangular_band f i j
  | Template.Unimodular _ | Template.Reverse_permute _
  | Template.Parallelize _ -> false

let violations f (t : Template.t) =
  let check () = Boundsmap.check f.bmat t in
  if Template.input_depth t <> Bmat.depth f.bmat then check ()
  else
    match t with
    | Template.Unimodular _ -> cell f.unimodular_check check
    | Template.Block { i; j; _ } -> band f f.block_check i j check
    | Template.Coalesce { i; j; _ } -> band f f.coalesce_check i j check
    | Template.Reverse_permute _ | Template.Parallelize _
    | Template.Interleave _ -> check ()

let innermost (n : Nest.t) =
  let rec last = function
    | [] -> None
    | [ (l : Nest.loop) ] -> Some l.Nest.var
    | _ :: loops -> last loops
  in
  last n.Nest.loops

let same_statements f (child : Nest.t) =
  child.Nest.inits == f.nest.Nest.inits && child.Nest.body == f.nest.Nest.body

(* A child's subscripts are the parent's when the child keeps the
   parent's statements and innermost loop variable: fresh loop variables
   never occur in them (they avoid [names]), and a form lists only the
   designated variables that occur. A scalar's substitution can mark a
   form non-linear in every loop variable, so then the set of loop
   variables must be the parent's too. *)
let inherits f (child : Nest.t) =
  let parent = f.nest in
  same_statements f child
  && innermost child = innermost parent
  && ((not f.defines_scalar)
     || List.sort String.compare (Nest.loop_vars child)
        = List.sort String.compare (Nest.loop_vars parent))

(* The inits a Unimodular child prepends to its parent's: one per loop
   of a unit-step parent ({!Codegen}), so the child's inits are those
   followed by the parent's own, physically. *)
let new_inits (parent : Nest.t) (child : Nest.t) =
  let rec split k inits =
    if k = 0 then if inits == parent.Nest.inits then Some [] else None
    else
      match inits with
      | Stmt.Set (x, rhs) :: rest ->
        Option.map (fun defs -> (x, rhs) :: defs) (split (k - 1) rest)
      | _ -> None
  in
  split
    (List.length child.Nest.inits - List.length parent.Nest.inits)
    child.Nest.inits

let maps f (t : Template.t) (child : Nest.t) =
  match t with
  | Template.Reverse_permute _ | Template.Block _ | Template.Parallelize _ ->
    same_statements f child
  | Template.Unimodular _ ->
    let loops = f.nest.Nest.loops in
    let rec sets k inits =
      if k = 0 then inits == f.nest.Nest.inits
      else
        match inits with
        | Stmt.Set _ :: rest -> sets (k - 1) rest
        | _ -> false
    in
    child.Nest.body == f.nest.Nest.body
    && List.for_all
         (fun (l : Nest.loop) ->
           match l.Nest.step with
           | Expr.Int k -> k = 1
           | step -> Expr.to_int step = Some 1)
         loops
    && sets (List.length loops) child.Nest.inits
    && ((not f.defines_scalar)
       ||
       let vars = Nest.loop_vars f.nest in
       not
         (List.exists
            (fun s ->
              List.exists (fun v -> List.mem v vars) (Stmt.defined_vars s))
            (f.nest.Nest.inits @ f.nest.Nest.body)))
  | Template.Coalesce _ | Template.Interleave _ -> false

let origin f t child =
  if inherits f child then Inherit f.refs
  else if maps f t child then Map (f.refs, t)
  else Own

(* [a], the forms of [parent], through [t] to [child]'s. *)
let map (parent : Nest.t) (t : Template.t) (child : Nest.t) a =
  match t with
  | Template.Reverse_permute _ | Template.Block _ | Template.Parallelize _ ->
    Access.relabel ~inner:(innermost parent) ~vars:(Nest.loop_vars child) a
  | Template.Unimodular _ -> (
    match new_inits parent child with
    | Some defs -> Access.substitute ~vars:(Nest.loop_vars child) ~defs a
    | None -> None)
  | Template.Coalesce _ | Template.Interleave _ -> None

(* As every slot: a racing fill stores an equal value, and only the
   domain whose store lands hears of its derivation, so [note] counts
   each stored derivation once at any domain count. A filled source
   forgets its origin, so it keeps no ancestor's source alive; a domain
   that read the origin before it was forgotten stores nothing. *)
let rec forms ?note src =
  match Atomic.get src.cell with
  | Some a -> (a, Stored)
  | None ->
    let a, how = derive ?note src.from src.forms_nest in
    if Atomic.compare_and_set src.cell None (Some a) then begin
      src.from <- Own;
      Option.iter (fun note -> note how) note;
      (a, how)
    end
    else (Option.get (Atomic.get src.cell), Stored)

and derive ?note origin nest =
  match origin with
  | Inherit p -> (fst (forms ?note p), Inherited)
  | Map (p, t) -> (
    match map p.forms_nest t nest (fst (forms ?note p)) with
    | Some a -> (a, Mapped)
    | None -> (Access.of_nest nest, Computed))
  | Own -> (Access.of_nest nest, Computed)
