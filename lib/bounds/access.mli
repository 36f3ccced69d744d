(** The array references of a nest as affine forms over its loop
    variables.

    The framework keeps a body verbatim and prepends init statements
    that define the old index variables as functions of the new ones
    (paper §2, item 4b). A subscript of a transformed nest is therefore
    an affine form over the new loop variables once those statements are
    substituted through it. {!of_nest} is the one place that does the
    substitution; the tier-0 cost model reads its forms and the exact
    tier's stream plan its innermost coefficients.

    Substitution rule: every scalar assigned by exactly one [Set], at
    the top level of the nest's statements (inits, then body), is
    substituted into the statements after it, in statement order. A
    scalar assigned twice, or only under a guard, is not substituted and
    stays a free symbol of the forms that read it. An expression that
    reads a substitutable scalar before its [Set] (a value carried from
    the previous iteration), or reads a scalar whose value did, is not
    affine: its form is {e carried} and lists every loop variable in
    [nonlinear_in]. Substitution keeps every subterm as written, so a
    non-linear use that folds away ([0 * (6 / (j - 3))]) still counts.

    A template keeps the body and only rewrites loop headers and
    prepends inits (paper §2), so a transformed nest's forms follow from
    its parent's wherever the rewrite is exact: {!relabel} for a child
    with the parent's statements, {!substitute} for a child whose new
    inits define the parent's loop variables as affine forms over its
    own. Each returns exactly what {!of_nest} of the child returns, or
    [None] where it cannot. *)

open Itf_ir

type reference = {
  array : string;
  write : bool;  (** a store; every other reference is a load *)
  guarded : bool;  (** inside a guard's body, so it may not run *)
  pos : int;
      (** rank in source order: a store before its subscripts and
          right-hand side, a load before its subscripts *)
  index : Expr.t list;  (** the subscripts as written *)
  dims : Affine.t list;
      (** one form per subscript, split over the loop variables
          ({!Affine.split}) after substitution *)
  slopes : Expr.t option list;
      (** per subscript, the coefficient of the innermost loop variable,
          free of that variable, when the substituted subscript reads it
          only through sums and products by terms free of it ([n * j]
          gives [n]); [None] otherwise *)
  carried : bool list;
      (** per subscript: it reads a value carried from the previous
          iteration, so its form lists every loop variable in
          [nonlinear_in] and its slope is [None] *)
}

type scalar = {
  var : string;
  value : Affine.t;  (** its value over the loop variables *)
  slope : Expr.t option;  (** as a reference's [slopes] *)
  carried : bool;  (** as a reference's [carried] *)
}

type t = {
  refs : reference list;
      (** every array reference, in the interpreter's touch order:
          statement by statement; a load after its subscripts' loads; a
          store after its subscripts and its right-hand side *)
  scalars : scalar list;  (** every substituted scalar, in statement order *)
}

val of_nest : Nest.t -> t

val relabel : inner:string option -> vars:string list -> t -> t option
(** [relabel ~inner ~vars a], with [a] the forms of a nest whose innermost
    loop variable is [inner]: the forms of a nest with the same init and
    body statements whose loop variables are [vars], outermost first, of
    which those not looped over by [a]'s nest occur in no statement (a
    [ReversePermute], [Block] or [Parallelize] child). The forms are
    [a]'s, with each carried form listing [vars] and, when the innermost
    variable changes, each slope recomputed from its form. [a] itself
    when neither applies. [None] when a form that is not carried uses
    the new innermost variable non-linearly: its slope needs the
    substituted expression. *)

val substitute :
  vars:string list -> defs:(string * Itf_ir.Expr.t) list -> t -> t option
(** [substitute ~vars ~defs a], with [a] the forms of a nest looping over
    the variables [defs] defines: the forms of the nest whose loop
    variables are [vars], whose statements are one [Set] per element of
    [defs], in order, followed by [a]'s nest's statements, which define
    none of [defs]' variables (a [Unimodular] child on unit steps, whose
    inits are [x = M^-1 y]). Each form's coefficients are composed with
    the definitions'; the definitions become the first scalars. [None]
    when a definition is not linear in [vars] (a constant or a
    non-linear term), or when a form is not affine or its base reads an
    old variable. *)
