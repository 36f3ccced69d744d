(** Dense integer matrices and vectors.

    The framework uses square integer matrices for the [Unimodular] template
    (paper Table 1) and integer vectors for dependence distances. Determinants
    are computed with the fraction-free Bareiss algorithm so that all
    intermediate values remain integers, and inverses of unimodular matrices
    are computed exactly via the adjugate. *)

type t
(** An immutable [rows x cols] integer matrix. *)

type vec = int array

val gcd : int -> int -> int
(** Greatest common divisor, never negative; [gcd 0 0 = 0]. *)

(** {1 Construction} *)

val make : int -> int -> (int -> int -> int) -> t
(** [make rows cols f] builds the matrix with entry [f i j] at row [i],
    column [j] (0-based). @raise Invalid_argument on non-positive dims. *)

val identity : int -> t

(** {1 Accessors} *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> int
val row : t -> int -> vec

(** {1 Algebra} *)

val compare : t -> t -> int
(** Total order: dimensions first, then row-major entries. *)

val hash : t -> int
(** Structural hash compatible with [equal]. *)

val is_identity : t -> bool
(** [is_identity t] = [compare t (identity (rows t)) = 0] for square [t], false
    otherwise — without allocating the identity. *)

val mul : t -> t -> t

val is_unimodular : t -> bool
(** True iff square and determinant is [+1] or [-1] (paper footnote 1). *)

val inverse_unimodular : t -> t
(** Exact integer inverse of a unimodular matrix (adjugate divided by the
    determinant, which is [+-1]).
    @raise Invalid_argument if the matrix is not unimodular. *)

(** {1 Elementary unimodular generators (paper Section 1)} *)

val interchange : int -> int -> int -> t
(** [interchange n i j] swaps loops [i] and [j] (0-based) in an [n]-nest. *)

val reversal : int -> int -> t
(** [reversal n i] negates loop [i]. *)

val skew : int -> int -> int -> int -> t
(** [skew n i j f] adds [f] times loop [i] to loop [j] (requires [i <> j]):
    the classic skewing matrix. *)

val pp : Format.formatter -> t -> unit
