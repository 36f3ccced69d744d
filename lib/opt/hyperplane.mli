(** Automatic wavefront (hyperplane) parallelization.

    Lamport's hyperplane method — the earliest framework the paper compares
    against (Section 5) — expressed as a {e user} of the general framework:
    find an integer hyperplane vector [h] with [h . d >= 1] for every
    dependence [d], complete it to a unimodular matrix whose first row is
    [h], and emit the two-template sequence [Unimodular M; Parallelize
    inner]: after the change of basis every dependence is carried by the
    new outermost loop, so all inner loops are legally [pardo].

    The search considers non-negative hyperplane coefficients up to [hmax]
    per component (enough for the classic stencil wavefronts); direction
    entries in dependence vectors are handled by minimizing [h . d] over
    the denoted tuple set.

    No program path calls this module yet: whether the search offers
    {!wavefront}'s sequence as a move, or the module goes, is ROADMAP
    item 10's decision. Until then it stays on [tools/exports]'
    allowlist. *)

open Itf_ir

val find_hyperplane : ?hmax:int -> depth:int -> Itf_dep.Depvec.t list -> int array option
(** Smallest-sum vector [h] in [[0..hmax]^depth], [gcd h = 1], with
    [min (h . Tuples d) >= 1] for every vector. [None] when no such [h]
    exists (e.g. a dependence admits arbitrarily negative combinations). *)

val completion : int array -> Itf_mat.Intmat.t
(** A unimodular matrix whose first row is the given vector.
    @raise Invalid_argument unless the entries' gcd is 1. *)

val wavefront : ?hmax:int -> Nest.t -> (Itf_core.Sequence.t * Itf_core.Framework.result) option
(** End to end: analyze the nest, find a hyperplane, build the sequence
    and validate it through the framework's uniform legality test.
    [None] when no hyperplane is found or the sequence is (conservatively)
    rejected. *)
