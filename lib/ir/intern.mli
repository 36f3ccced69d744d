(** Hash-consing of the IR (see {!Itf_mat.Hashcons} and DESIGN.md §10).

    The IR types stay public pattern-matchable variants; interning returns
    the canonical physically-shared representative of a term plus a dense
    integer id. Structurally equal terms — however they were constructed —
    intern to the same physical value and the same id, so interned-term
    equality is [(==)] and id equality, both O(1).

    All functions are domain-safe (shared mutex-protected append-only
    tables) and idempotent; re-interning a canonical term is a single
    table probe per node. *)

val expr : Expr.t -> Expr.t
val expr_id : Expr.t -> int

val expr_i : Expr.t -> Expr.t * int
(** Canonical representative and id in one probe. *)

val stmt : Stmt.t -> Stmt.t
val stmt_i : Stmt.t -> Stmt.t * int

val nest : Nest.t -> Nest.t
val nest_id : Nest.t -> int
val nest_i : Nest.t -> Nest.t * int

val str_id : string -> int
(** Interned-string id (variable, array, and function names). *)
