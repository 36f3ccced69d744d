(** Direction values for dependence-vector entries (paper Definition 3.1).

    A direction value denotes a set of integers by sign:
    [Pos] = [+] (all positive), [Neg] = [-], [NonNeg] = [0+], [NonPos] = [0-],
    [NonZero] = [+-], [Any] = [*], and [Zero] (the paper folds this into the
    zero distance; it appears here so the direction algebra is closed). *)

type t = Zero | Pos | Neg | NonNeg | NonPos | NonZero | Any

type signs = { neg : bool; zero : bool; pos : bool }
(** Which signs the value may take. Never all-false. *)

val signs : t -> signs
val of_signs : signs -> t
(** @raise Invalid_argument on the empty sign set. *)

val of_int : int -> t
(** Sign of a concrete distance. *)

val contains : t -> int -> bool
(** [contains d x] — is the integer [x] in the set denoted by [d]? *)

val subset : t -> t -> bool
(** [subset a b] — is [S(a)] contained in [S(b)]? *)

val reverse : t -> t
(** Negation of the denoted set (paper Table 2, [reverse] row). *)

val union : t -> t -> t

val merge_lex : t -> t -> t
(** Lexicographic combination used by [Coalesce]'s [mergedirs] (paper
    Table 2): the sign of the linearized distance [outer * N + inner] with
    [N] larger than any inner distance — the outer sign when nonzero, the
    inner sign when the outer is zero. E.g. [merge_lex Pos Neg = Pos],
    [merge_lex Zero d = d], [merge_lex NonNeg Neg = Any]... computed over
    sign sets. *)

val tag : t -> int
(** The constructor's position in the declaration, [Zero] = 0 to
    [Any] = 6. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order by constructor declaration order (identical to the order
    the polymorphic compare gave this enum). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val of_string : string -> t option
(** Parses ["0" "+" "-" "0+" "0-" "+-" "*"]. *)
