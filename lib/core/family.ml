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
  refs : Access.t option Atomic.t;
  unimodular : (normalized, exn) result option Atomic.t;
  unimodular_check : Boundsmap.violation list option Atomic.t;
  grids : grid array option Atomic.t;
  rectangular : bool option array;
  block_check : Boundsmap.violation list option array;
  coalesce_check : Boundsmap.violation list option array;
  block_image : Depvec.t list option array;
}

let make ?(refs = Atomic.make None) nest vectors =
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
    refs;
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

(* A child's subscripts are the parent's when the child keeps the
   parent's statements and innermost loop variable: fresh loop variables
   never occur in them (they avoid [names]), and a form lists only the
   designated variables that occur. A scalar's substitution can mark a
   form non-linear in every loop variable, so then the set of loop
   variables must be the parent's too. *)
let inherits f (child : Nest.t) =
  let parent = f.nest in
  let innermost (n : Nest.t) =
    match List.rev n.Nest.loops with l :: _ -> Some l.Nest.var | [] -> None
  in
  child.Nest.inits == parent.Nest.inits
  && child.Nest.body == parent.Nest.body
  && innermost child = innermost parent
  && ((not f.defines_scalar)
     || List.sort String.compare (Nest.loop_vars child)
        = List.sort String.compare (Nest.loop_vars parent))
