(** Hash-consing of the IR (see {!Itf_mat.Hashcons} and DESIGN.md §10).

    The IR types stay public pattern-matchable variants; interning an
    expression returns its canonical physically-shared representative
    plus a dense integer id. Structurally equal expressions — however
    they were constructed — intern to the same physical value and the
    same id, so interned-term equality is [(==)] and id equality, both
    O(1). The string and expression tables are append-only: template ids
    depend on expression ids as equality witnesses.

    All functions are domain-safe and idempotent. *)

val expr_i : Expr.t -> Expr.t * int
(** Canonical representative and id of an expression. *)

val nest_id : Nest.t -> int
(** A name for a root nest, for memo keys only: structurally equal nests
    get equal ids while the nest is in the bounded [ir.nest] table. A
    nest evicted from it gets a fresh id when it comes back; an id is
    never given to another nest. *)

val str_id : string -> int
(** Interned-string id (variable, array, and function names). *)
