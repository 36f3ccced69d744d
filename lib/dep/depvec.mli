(** Dependence vectors (paper Definitions 3.1-3.3).

    A dependence vector for a nest of size [n] is an [n]-tuple whose entry
    for loop [k] is either an exact integer {e distance} or a {e direction}
    value. [Tuples(d)] — the set of integer tuples a vector denotes — is the
    Cartesian product of the per-entry integer sets; the key legality
    question is whether that set contains a lexicographically negative tuple
    (Definition 3.2), which here is decidable by a linear scan because the
    per-entry sets are independent. *)

type elem = Dist of int | Dir of Dir.t

type t = elem array

(** {1 Elements} *)

val dist : int -> elem
val dir : Dir.t -> elem
(** Normalizes [Dir Zero] to [Dist 0] (paper footnote 3: an [=] direction is
    equivalent to a zero distance). *)

val elem_signs : elem -> Dir.signs
val elem_dir : elem -> Dir.t
(** The direction summarizing an element ([dir(dk)] in paper Table 2). *)

val elem_reverse : elem -> elem
val elem_union : elem -> elem -> elem
(** Smallest representable element covering both (exact distances are kept
    only when equal). *)

val elem_contains : elem -> int -> bool
val elem_subset : elem -> elem -> bool
val elem_is_zero : elem -> bool

(** {1 Vectors} *)

val of_list : elem list -> t
val zero : int -> t

val may_lex_negative : t -> bool
(** Does [Tuples(d)] contain a lexicographically negative tuple?
    (Basis of the dependence legality test, paper Section 3.2.) *)

val is_lex_positive_definite : t -> bool
(** Is every tuple in [Tuples(d)] lexicographically positive? *)

val mem : t -> int array -> bool
(** Tuple membership in [Tuples(d)]. *)

val subset : t -> t -> bool
(** Componentwise containment: [Tuples(a)] ⊆ [Tuples(b)]. *)

val elem_equal : elem -> elem -> bool
val elem_compare : elem -> elem -> int

val equal : t -> t -> bool
(** Explicit field-wise structural equality (no polymorphic [=]). *)

val compare : t -> t -> int
(** Explicit field-wise total order, identical to the order the
    polymorphic compare produced (length first, then elementwise): the
    output order of {!dedupe} is observable and must not change. *)

(** {1 Sets of vectors} *)

val set_may_lex_negative : t list -> t option
(** First vector (if any) whose tuple set contains a lex-negative tuple. *)

val dedupe : t list -> t list
(** Remove duplicates and vectors subsumed by another vector in the list. *)

(** {1 Text} *)

val pp_elem : Format.formatter -> elem -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> t
(** Parses ["(1, -1)"], ["(0, +)"], ["(0+, *, 2)"]...
    @raise Invalid_argument on malformed input. *)
