(** The [type(expr, xi)] classification of paper Section 4.1.

    [type(expr, xi)] is [Const] if [expr] is a compile-time constant, [Invar]
    if [expr] does not mention [xi], [Linear] if [xi] occurs with a
    compile-time integer coefficient, and [Nonlinear] otherwise.

    The paper's special case: when a lower bound with positive step is a
    [max] of terms (or an upper bound a [min] of terms), each term counts as
    a separate linear inequality, so the bound classifies as the join of its
    terms' types rather than as [Nonlinear]. [bound_terms] splits such a
    bound into its terms; {!Bmat.btype} classifies each term and joins the
    results. *)

open Itf_ir

type role = Lower | Upper | Step

val bound_terms : role -> step_sign:int -> Expr.t -> Expr.t list
(** Decompose a bound into its max/min terms when the special case applies
    ([Lower]+[max] for positive step, [Lower]+[min] for negative step, and
    dually for [Upper]); otherwise the single original expression. *)
