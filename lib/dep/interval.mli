(** Extended integers and closed intervals over them.

    The dependence analyzer's Banerjee-style feasibility test and the
    dependence mapper's Unimodular rule both bound an unknown distance by
    an interval whose ends may be infinite. *)

type ext = NegInf | Fin of int | PosInf

type t = ext * ext
(** [(lo, hi)]: the integers [x] with [lo <= x <= hi]. *)

val point : int -> t

val add : t -> t -> t
(** Never raises on intervals whose low ends are not [PosInf] and whose
    high ends are not [NegInf].
    @raise Invalid_argument if an end would be [NegInf + PosInf]. *)

val neg : t -> t
val sub : t -> t -> t
val scale : int -> t -> t

val unscale : int -> t -> t
(** [unscale s i], [s <> 0]: the integers [x] with [s * x] in [i]. *)

val hull : t -> t -> t
(** The smallest interval holding both. *)

val contains : t -> int -> bool
