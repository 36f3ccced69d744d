(** The LB/UB/STEP coefficient-matrix representation of loop bounds
    (paper Section 4.3, Figure 5).

    For a nest of [n] loops, each of the three matrices has a row per loop.
    Row [i]'s entry at column [j] ([j < i], 0-based loop positions) is the
    compile-time integer coefficient of index variable [j] in the bound of
    loop [i]; column "0" of the paper — the loop-invariant part, possibly
    holding folded-in nonlinear terms — is the [base] expression here. A
    bound that is a [max] (lower) or [min] (upper) of several linear terms is
    stored as a list of terms, one coefficient row fragment per inequality,
    exactly as in Figure 5's [max<n, 3>] entry.

    This structure carries enough information to answer every [type]
    predicate in the templates' preconditions without re-walking expression
    trees, and to drive Unimodular/Block code generation. *)

open Itf_ir

type term = {
  coeffs : int array;  (** length [i]: coefficient of loop [j < i] *)
  base : Expr.t;  (** invariant part (+ folded nonlinear terms) *)
  nonlinear : bool array;  (** length [i]: loop [j] occurs non-linearly *)
}

type t = private {
  vars : string array;
  kinds : Nest.kind array;
  lowers : term list array;  (** multiple terms = [max] (for positive step) *)
  uppers : term list array;  (** multiple terms = [min] (for positive step) *)
  steps : term array;
}

type which = L | U | S

val of_nest : Nest.t -> t

val depth : t -> int

val btype : t -> which -> loop:int -> wrt:int -> Btype.t
(** [btype t w ~loop:i ~wrt:j] is [type(bound, x_j)] for loop [i]'s bound
    [w], computed from the stored matrix entries — the per-term max/min
    special case of Section 4.1 is already built in. *)

val step_expr : t -> int -> Expr.t

val pp : Format.formatter -> t -> unit
(** Prints the three matrices in the style of Figure 5. *)
