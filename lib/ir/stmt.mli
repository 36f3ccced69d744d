(** Statements of a loop body.

    The framework never changes the body of a perfect loop nest (paper §1) —
    it only prepends {e initialization statements} that define the original
    index variables as functions of the new ones (paper §2, item 4b).
    Guarded blocks cover bodies like paper Figure 2(a)'s
    [if (...) b(j) = a(i-1, j+1)]. *)

type rel = Lt | Le | Gt | Ge | Eq | Ne

type t =
  | Store of Expr.access * Expr.t  (** [a(i, j) = e] *)
  | Set of string * Expr.t  (** [x = e] — scalar/init statement *)
  | Guard of guard  (** [if lhs REL rhs then body endif] *)

and guard = { lhs : Expr.t; rel : rel; rhs : Expr.t; body : t list }

val holds : rel -> int -> int -> bool

val hash : t -> int
(** Structural hash compatible with [equal]. *)

val free_vars : t -> string list
(** Variables read by the statement (not the stored-to scalar). *)

val defined_var : t -> string option
(** [Some x] for a top-level [Set (x, _)]. *)

val defined_vars : t -> string list
(** Every scalar the statement may assign, including under guards. *)

val arrays_read : t -> string list
val arrays_written : t -> string list

val pp : Format.formatter -> t -> unit
