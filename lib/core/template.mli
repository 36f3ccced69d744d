(** The kernel set of transformation templates (paper Table 1).

    A {e transformation template} has parameters; supplying values creates a
    {e template instantiation}. An iteration-reordering transformation is a
    sequence of instantiations (see {!Sequence}). Loop positions here are
    {b 0-based} (the paper is 1-based): position 0 is the outermost loop.

    Every template knows its input nest size [n] and its output nest size:
    [Block] and [Interleave] grow the nest by the width of their loop range,
    [Coalesce] shrinks it to a single loop for the range, and the others
    preserve it. *)

open Itf_ir

type t =
  | Unimodular of { n : int; m : Itf_mat.Intmat.t; minv : Itf_mat.Intmat.t }
      (** [m] is an [n x n] unimodular matrix mapping iteration vectors
          [y = m x]; [minv] is its inverse, computed once by
          {!unimodular}, so every nest the instantiation is applied to
          reads the same [x = minv y] (paper §5: a transformation is a
          value independent of the nest). Identity, order and hash read
          [m] alone. *)
  | Reverse_permute of { n : int; rev : bool array; perm : int array }
      (** [rev.(k)]: reverse loop [k] first; [perm.(k)]: then move loop [k]
          to position [perm.(k)]. *)
  | Parallelize of { n : int; parflag : bool array }
      (** [parflag.(k)]: make loop [k] a [pardo]. *)
  | Block of { n : int; i : int; j : int; bsize : Expr.t array }
      (** Tile contiguous loops [i..j] (inclusive); [bsize.(k - i)] is the
          block-size expression for loop [k]. *)
  | Coalesce of { n : int; i : int; j : int }
      (** Collapse contiguous loops [i..j] into a single loop. *)
  | Interleave of { n : int; i : int; j : int; isize : Expr.t array }
      (** Interleave contiguous loops [i..j]; [isize.(k - i)] is the
          interleave factor for loop [k]. *)

(** {1 Validated constructors}

    Each raises [Invalid_argument] on malformed parameters (wrong
    dimensions, non-unimodular matrix, non-permutation, empty or out-of-
    range loop ranges). *)

val unimodular : Itf_mat.Intmat.t -> t
val reverse_permute : rev:bool array -> perm:int array -> t
val parallelize : bool array -> t
val block : n:int -> i:int -> j:int -> bsize:Expr.t array -> t
val coalesce : n:int -> i:int -> j:int -> t
val interleave : n:int -> i:int -> j:int -> isize:Expr.t array -> t

(** {1 Convenience instantiations} *)

val interchange : n:int -> int -> int -> t
(** Swap two loops (a [Reverse_permute]). *)

val reversal : n:int -> int -> t
(** Reverse one loop (a [Reverse_permute]). *)

val skew : n:int -> src:int -> dst:int -> factor:int -> t
(** Skew loop [dst] by [factor * x_src] (a [Unimodular]). *)

val parallelize_one : n:int -> int -> t

(** {1 Shape} *)

val input_depth : t -> int
val output_depth : t -> int

val to_matrix : t -> Itf_mat.Intmat.t option
(** The transformation matrix of a matrix-representable instantiation:
    [Unimodular]'s own matrix, or a [Reverse_permute]'s signed permutation
    (a reversed loop's iteration order equals the unimodular reversal's).
    [None] for the non-matrix templates — [Parallelize], [Block],
    [Coalesce], [Interleave] (paper Section 1). *)

(** {1 Identity} *)

val compare : t -> t -> int
(** Explicit structural total order (no polymorphic compare: [Intmat.t] is
    abstract and expressions are compared via {!Itf_ir.Expr.compare}). *)

val intern_id : t -> t * int
(** The canonical physically-shared instantiation (the first one interned
    that is structurally equal to it; see {!Itf_mat.Hashcons}) and its
    dense intern id. Equal ids = equal templates; ids are not an
    ordering. *)

val name : t -> string

val kinds : string array
(** The templates' names in the order of [t]'s constructors. *)

val kind : t -> int
(** The index of [t]'s name in {!kinds}. *)

val pp : Format.formatter -> t -> unit
