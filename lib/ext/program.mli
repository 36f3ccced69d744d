(** Sequences of loop nests.

    The kernel framework transforms one perfect nest at a time; the
    statement-level transformations of the paper's Section 6 future work
    (distribution, fusion) turn one nest into several or several into
    one, so their natural domain is a {e program}: a list of nests
    executed in order. *)

open Itf_ir

type t = Nest.t list

val pp : Format.formatter -> t -> unit
