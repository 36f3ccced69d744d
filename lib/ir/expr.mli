(** Integer expressions for loop bounds, subscripts, and loop bodies.

    Expressions include the operators needed by the paper's code-generation
    rules: [min]/[max] (Tables 3-4), floor [div]/[mod] (Coalesce
    delinearization), and uninterpreted calls (the sparse-matrix example of
    Figure 4(c) uses [colstr(j)] and [rowidx(k)]). Division is floor division
    (rounds toward negative infinity) and [mod] is its matching remainder, so
    [a = b * (a / b) + a mod b] always holds. *)

type t =
  | Int of int
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t  (** floor division *)
  | Mod of t * t  (** remainder of floor division *)
  | Min of t * t
  | Max of t * t
  | Load of access  (** array read, e.g. [a(i-1, j)] *)
  | Call of string * t list
      (** uninterpreted (loop-invariant) function call; ["abs"] and ["sgn"]
          are interpreted as builtins by the executor *)

and access = { array : string; index : t list }

(** {1 Smart constructors}

    These perform local constant folding and identity elimination, keeping
    generated bounds readable. *)

val int : int -> t
val var : string -> t
val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val mod_ : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val min_list : t list -> t
val max_list : t list -> t

val zero : t
val one : t

val ceil_div : t -> int -> t
(** [ceil_div e c] is an expression for ceiling(e / c), [c > 0]. *)

val floor_div : t -> int -> t
(** [floor_div e c] is an expression for floor(e / c), [c > 0]. *)

(** {1 Queries and traversal} *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int
(** Structural hash compatible with [equal]; folds over the whole
    expression (no depth truncation). *)

val hash_combine : int -> int -> int
(** The accumulator step used by [hash]; shared by the other IR hashes
    ({!Stmt.hash}, {!Nest.hash}) so they compose consistently. *)

val free_vars : t -> string list
(** Variables read by the expression, without duplicates, sorted. *)

val arrays : t -> string list
(** Arrays loaded by the expression, without duplicates, sorted. *)

val mentions : string -> t -> bool

val subst : (string * t) list -> t -> t
(** Simultaneous substitution of variables; uses smart constructors. *)

val to_int : t -> int option
(** [Some n] if the expression simplifies to the literal [n]. *)

val fdiv : int -> int -> int
(** Integer floor division, the semantics of [Div]: a nonzero remainder
    takes the divisor's sign. @raise Division_by_zero on a zero divisor. *)

val fmod : int -> int -> int
(** [fmod a b = a - b * fdiv a b], the semantics of [Mod]. *)

val pp : Format.formatter -> t -> unit
val pp_access : Format.formatter -> access -> unit
val to_string : t -> string
