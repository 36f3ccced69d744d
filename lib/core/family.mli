(** What the children of one nest share: the parent state's family.

    Paper §5 makes a transformation a value independent of the nest, and
    the bounds preconditions of Tables 3-4 read only the parent's
    LB/UB/STEP matrices. So most of what a template's stage computes
    depends on the parent alone, or on the parent and the template's
    loop band, never on the rest of the template. A family holds that
    work for one parent nest and its dependence vectors, built on first
    use and read by every sibling:

    - the bound matrices ({!Itf_bounds.Bmat}), and the names the nest
      already uses, which seed every fresh-name supply of
      {!Codegen.apply};
    - for [Unimodular] children, the precondition verdict (it reads only
      the matrices) and the step-normalized nest with its
      Fourier–Motzkin system ({!Codegen}); each child then only
      substitutes its own [M^-1] ({!Template.Unimodular}'s [minv]);
    - per loop band [(i, j)]: the [Block] and [Coalesce] precondition
      verdicts, whether the band is rectangular, and [Block]'s image of
      the vectors, which never reads the block sizes ({!Depmap});
    - per vector, the step-normalized grid the [Unimodular] vector rule
      reads ({!Depmap});
    - the cell of the parent's array reference forms
      ({!Itf_bounds.Access}), which a child shares when {!inherits}
      holds.

    Every slot is a memo of a pure function of what it is keyed on: the
    family's nest and vectors, plus the band for a band slot. Slots are
    domain-safe: search engines extend one parent from several domains
    at once, a racing fill stores an equal value, and a reader sees a
    slot empty or filled. A family is never keyed across nests: each
    legality state builds its own ({!Legality}), and a caller without
    one builds one on the fly ({!make}), so every caller runs the same
    code. *)

type grid = {
  grid_exact : bool array;
      (** per loop: the normalized delta equals the vector entry *)
  grid_norm : Itf_dep.Interval.t array;
      (** per loop: the step-normalized counter's delta *)
}
(** What the [Unimodular] vector rule reads of one vector on the
    family's nest ({!Depmap.map_vector}). *)

type normalized = {
  norm_nest : Itf_ir.Nest.t;  (** the nest with every step made 1 *)
  norm_names : string list;
      (** every name in use once the step counters are named *)
  norm_system : Itf_bounds.Fourier.system;  (** [norm_nest]'s bounds *)
}
(** The part of [Unimodular] code generation that no matrix reads. *)

type t = private {
  nest : Itf_ir.Nest.t;
  vectors : Itf_dep.Depvec.t list;
  bmat : Itf_bounds.Bmat.t;
  names : string list;  (** {!Itf_ir.Nest.all_vars} of [nest] *)
  defines_scalar : bool;  (** some init or body statement sets a scalar *)
  refs : Itf_bounds.Access.t option Atomic.t;
  unimodular : (normalized, exn) result option Atomic.t;
      (** filled by {!Codegen}; an [Error] is re-raised for every child *)
  unimodular_check : Boundsmap.violation list option Atomic.t;
  grids : grid array option Atomic.t;
      (** filled by {!Depmap}, one grid per vector of [vectors] *)
  rectangular : bool option array;
  block_check : Boundsmap.violation list option array;
  coalesce_check : Boundsmap.violation list option array;
  block_image : Itf_dep.Depvec.t list option array;
      (** filled by {!Depmap}: [Block]'s image of [vectors] *)
}
(** The band slots are indexed [i * depth + j]. *)

val make :
  ?refs:Itf_bounds.Access.t option Atomic.t ->
  Itf_ir.Nest.t -> Itf_dep.Depvec.t list -> t
(** [make nest vectors] builds the matrices and the name set at once and
    leaves every other slot empty. [refs] is the cell of [nest]'s
    reference forms (default: a new empty cell). *)

val cell : 'a option Atomic.t -> (unit -> 'a) -> 'a
(** The slot's value, computed and stored on first use. *)

val band : t -> 'a option array -> int -> int -> (unit -> 'a) -> 'a
(** [band f slots i j compute]: the band [(i, j)]'s slot of [slots], as
    {!cell}. *)

val rectangular_bands : t -> Template.t -> bool
(** Whether the template's loop band has bounds and steps invariant in
    every enclosing loop variable ([false] for a template without a
    band): Table 2's exact band entries hold only then
    ({!Depmap.map_vector}). *)

val violations : t -> Template.t -> Boundsmap.violation list
(** {!Boundsmap.check} of the family's matrices, kept per family for
    [Unimodular] and per band for [Block] and [Coalesce]. *)

val inherits : t -> Itf_ir.Nest.t -> bool
(** [inherits f child]: [child]'s reference forms equal the family
    nest's. It holds when [child] keeps the nest's init and body
    statements (physically) and its innermost loop variable, and, when
    some statement sets a scalar, its set of loop variables. *)
