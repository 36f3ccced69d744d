(** Fourier-Motzkin elimination over integer-coefficient inequalities with
    symbolic invariant parts.

    Used by the [Unimodular] template's code generation: the iteration space
    of the input nest is written as a system of inequalities over the new
    index vector [y = M x] (substituting [x = M^{-1} y]), then variables are
    eliminated innermost-first to produce, for each [y_k], a lower bound
    [max(...)] and an upper bound [min(...)] mentioning only [y_1..y_{k-1}]
    and loop invariants — the code-generation scheme referenced by the paper
    as "studied in detail in [7, 14]".

    An inequality is [sum_k coeffs.(k) * y_k + base >= 0] where [base] is a
    loop-invariant expression (symbols such as [n] are allowed). Divisions
    introduced when a variable's coefficient is not [+-1] are emitted as
    floor/ceiling expressions. *)

open Itf_ir

type ineq = { coeffs : int array; base : Expr.t }

type system = { vars : string array; ineqs : ineq list }

val ineq : int array -> Expr.t -> ineq

exception Unbounded of string
(** Raised when some variable has no lower or no upper constraint. *)

val bounds : system -> (Expr.t * Expr.t) array
(** [bounds sys] returns, for each variable [y_k] (in order), the pair
    [(lower, upper)] of bound expressions over [y_0..y_{k-1}] and invariants
    such that scanning the loops [y_k = lower .. upper] (step 1, outermost
    first) enumerates exactly the integer points satisfying the system
    projected per Fourier-Motzkin.
    @raise Unbounded if a variable is unconstrained on one side. *)

val nest_system : Nest.t -> system
(** The inequality system of a nest whose bounds are affine with unit steps:
    [x_k >= each max-term of l_k] and [x_k <= each min-term of u_k].
    @raise Invalid_argument if a bound is not affine in the loop variables. *)

val substitute : system -> Itf_mat.Intmat.t -> string array -> system
(** [substitute sys minv new_vars] rewrites a system over [x] into one over
    [y] given [x = minv * y] (the inverse of the transformation matrix),
    renaming to [new_vars]. *)

val definitely_infeasible : ?max_ineqs:int -> system -> bool
(** Integer-sound infeasibility by full elimination: [true] only when the
    system provably has no {e integer} solution.

    Each inequality becomes one integer row on entry: its variable
    coefficients, one column per loop invariant of the bases, and a
    constant. A symbol such as [n] is an invariant column, and so is each
    distinct non-affine subterm such as [n / 2] (structurally equal
    subterms share their column). Treating these subterms as free
    integers relaxes the system, which keeps the answer sound, and lets
    [x >= n] and [x <= n - 1] cancel to [-1 >= 0].

    Variables are then eliminated in order, [y_0] first, by rational
    Fourier-Motzkin. A row without invariant part is divided by the gcd of
    its coefficients with its constant rounded down (integer tightening:
    [1 <= 2x <= 1] is empty); among rows equal up to the constant only the
    tightest is kept. Infeasibility is a row whose variable and invariant
    coefficients are all zero and whose constant is negative.

    [max_ineqs] (default 400) bounds the work of each elimination step:
    when the rows that survive it plus the pairs it would combine,
    [|rest| + |pos| * |neg|], exceed the cap, the test gives up and
    returns [false]. So [false] means "possibly feasible". Used by the
    dependence analyzer to prune direction vectors that the decoupled
    interval test cannot. *)
