(** Dependence-vector mapping rules for the kernel templates
    (paper Table 2).

    Every template except [Block] and [Interleave] maps a dependence vector
    to exactly one output vector; [Block] and [Interleave] fan out to as
    many as [2^(j-i+1)] (respectively [3^(j-i+1)]) vectors — the reason they
    cannot be represented by transformation matrices (paper Section 3.2).

    All rules are {e consistent} in the sense of paper Definition 3.4: the
    transformed vector set covers the image of every ordered dependent
    iteration pair. The test suite verifies this empirically against the
    interpreter on randomized nests and transformations.

    Two rules were reconstructed from the paper's stated semantics (the OCR
    of Table 2 is damaged there):

    - [Parallelize]'s [parmap(d)] keeps a provably-zero entry and otherwise
      widens to the union of [d] with its reverse — a [pardo] loop's
      iterations are mutually unordered, so a nonzero dependence component
      may be observed in either order.
    - [Interleave]'s [imap(d)] decomposes [d = phase + F * position] for an
      unknown factor [F]: zero maps to [(0, 0)]; a positive component maps
      to the pairs [(0, +), (+, 0+), (-, +)] (and mirrored for negative);
      sign-unknown components take the corresponding unions. *)

val map_vector :
  ?rectangular_bands:bool -> ?nest:Itf_ir.Nest.t -> Template.t ->
  Itf_dep.Depvec.t -> Itf_dep.Depvec.t list
(** [nest] is the nest the template is applied to. [Unimodular] needs it
    whenever a non-unit-step loop's lower bound depends on an enclosing
    loop variable: the matrix acts on step-normalized counters whose grid
    origin then shifts between the two iterations of a dependence, so the
    counter delta is [(dx - dlo)/s] rather than the vector entry itself.
    With the nest at hand those components are bounded by interval
    arithmetic over value deltas; without it the classic [d' = M d] rule is
    used, which is only sound for invariant lower bounds (the differential
    fuzzer found skews of [do j = i, i+3, 3]-style nests it wrongly
    accepts).

    [rectangular_bands] (default [false]) asserts that the bounds and steps
    of the template's loop range are invariant in {e all} enclosing loop
    variables. Table 2's exact entries for [Block]/[Coalesce]/[Interleave]
    bands (e.g. [blockmap]'s [(0, d)] "same block" pair) silently assume
    this: when a band loop's bounds depend on an enclosing loop and the
    vector has a nonzero enclosing component, the renumbering performed by
    the transformation shifts per-iteration alignment, so this
    implementation widens those entries to keep the rules consistent
    (Definition 3.4) — a refinement of the paper validated by the
    randomized oracle tests. {!Legality} computes the flag from the nest's
    LB/UB/STEP matrices; callers without a nest at hand get the sound
    conservative default.
    @raise Invalid_argument if the vector length differs from the
    template's input depth. *)

val map_set :
  ?rectangular_bands:bool -> ?family:Family.t -> Template.t ->
  Itf_dep.Depvec.t list -> Itf_dep.Depvec.t list
(** Image of a whole dependence-vector set, deduplicated: {!map_vector}
    of each vector. [family], when given, is the family of the nest the
    template is applied to ({!Family}); it stands for [nest] and for
    [rectangular_bands], which it answers per band. When the set is the
    family's own vectors (physically), what depends only on the parent
    is read from the family, built there on first use: the
    [Unimodular] rule's grid of each vector, kept once per family, and
    [Block]'s image of the set, kept once per band (the rule never
    reads the block sizes, so the size siblings of one band share it). *)
