(** The sequence representation of iteration-reordering transformations
    (paper Section 2).

    A transformation is a list of template instantiations, applied left to
    right. Composition of transformations is sequence concatenation; for
    efficiency the concatenation is reduced by composing adjacent compatible
    instantiations into one (paper Section 2, item 2):

    - [Unimodular M1] then [Unimodular M2] becomes [Unimodular (M2 * M1)];
    - adjacent [Reverse_permute]s compose their permutations and fold their
      reversal masks;
    - adjacent [Parallelize]s take the union of their flags;
    - an identity instantiation (identity matrix / identity permutation with
      no reversals / all-false flags) is dropped. *)

type t = Template.t list

val well_formed : t -> bool
(** Depths chain: each template's input depth equals the previous one's
    output depth. The empty sequence is well-formed. *)

val reduce : t -> t
(** Fixpoint of the adjacent-composition rules over the whole sequence. *)

val compare : t -> t -> int
(** Lexicographic over {!Template.compare}; a total order usable as a
    deterministic tie-break. *)

val intern_id : t -> t * int
(** The canonical physically-shared sequence of interned templates (see
    {!Itf_mat.Hashcons}) and its dense intern id: equal ids = equal sequences, an
    O(1) stand-in for structural equality (NOT for the {!compare} order —
    ids follow intern order). A sequence is keyed on its prefix's id and
    its last template's id, so interning a whole sequence interns each
    of its prefixes. *)

val extend_id : t * int -> Template.t * int -> t * int
(** [extend_id (seq, id) (t, tid)], where [(seq, id)] is an
    {!intern_id} result and [(t, tid)] a {!Template.intern_id} result,
    is [intern_id (seq @ [t])] in one table probe. *)

val reduce_id : t * int -> t * int
(** [reduce_id (seq, id)] of an {!intern_id} result is the interned
    [reduce seq] plus its id, memoized by [id]: one probe when warm.
    Domain-safe. *)

val pp : Format.formatter -> t -> unit
