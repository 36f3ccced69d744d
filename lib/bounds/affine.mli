(** Splitting expressions into an affine part over designated index variables
    plus a residue.

    Given a set of {e designated} variables (the loop index variables), an
    expression is decomposed as [sum_k c_k * x_k + base], where each [c_k] is
    a compile-time integer coefficient and [base] collects everything else:
    literal constants, symbolic loop invariants (like [n]), and any subterm
    that uses a designated variable non-linearly ([div], [mod], [min]/[max],
    array loads, calls). Designated variables buried in such subterms are
    reported in [nonlinear_in] — this is exactly the information the paper's
    LB/UB/STEP matrices store (Section 4.3: "if type(i,j) = nonlinear, the
    (i,j) entry is set to zero and the terms involving index variable j are
    combined into the (i,0) entry"). *)

open Itf_ir

type t = {
  coeffs : (string * int) list;
      (** designated variables with nonzero integer coefficients, sorted *)
  base : Expr.t;  (** residue; loop-invariant unless [nonlinear_in <> []] *)
  nonlinear_in : string list;
      (** designated variables used non-linearly inside [base], sorted *)
}

val split : vars:string list -> Expr.t -> t

val coeff : t -> string -> int
(** Coefficient of a designated variable (0 when absent). *)

val is_affine : t -> bool
(** True iff no designated variable is used non-linearly. *)
