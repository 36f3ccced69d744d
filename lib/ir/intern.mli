(** Names for root nests (see {!Itf_mat.Hashcons} and DESIGN.md §10).

    All functions are domain-safe. *)

val nest_id : Nest.t -> int
(** A name for a root nest, for memo keys only: structurally equal nests
    get equal ids while the nest is in the bounded [ir.nest] table. A
    nest evicted from it gets a fresh id when it comes back; an id is
    never given to another nest. *)
