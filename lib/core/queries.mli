(** Dependence-based queries a transformation selector needs.

    These are thin, well-defined views over the dependence-vector set that
    the framework's clients (the optimizer, a vectorizer, a tiling planner)
    ask constantly. They connect the framework to the classical notions of
    the related work the paper discusses: Allen-Kennedy's loop-carried
    dependence {e level} and Wolf-Lam's fully-permutable loop bands. *)

val parallelizable_loops : depth:int -> Itf_dep.Depvec.t list -> int list

val vectorizable_innermost : depth:int -> Itf_dep.Depvec.t list -> bool
(** Can the innermost loop run in lockstep (no dependence carried by it)?
    The paper's vector-execution motivation reduces to this test. *)

val fully_permutable : depth:int -> Itf_dep.Depvec.t list -> i:int -> j:int -> bool
(** Is the contiguous band [i..j] fully permutable — every dependence
    either carried outside the band or componentwise non-negative inside
    it? A fully permutable band admits any permutation and any blocking of
    its loops (the Wolf-Lam tiling condition). *)
