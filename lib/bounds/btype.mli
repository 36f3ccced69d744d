(** The bound-expression type lattice of paper Section 4.1.

    [type(expr, xi)] captures how index variable [xi] is used in a bound
    expression. The values form a total order
    [Const ⊑ Invar ⊑ Linear ⊑ Nonlinear]; a precondition
    [type(e, x) ⊑ V] is satisfied by any value at or below [V]. *)

type t = Const | Invar | Linear | Nonlinear

val leq : t -> t -> bool
(** Lattice order: [Const ⊑ Invar ⊑ Linear ⊑ Nonlinear]. *)

val join : t -> t -> t

val pp : Format.formatter -> t -> unit
