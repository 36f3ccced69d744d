(** Tier-0 analytic objective: a static locality / parallelism estimator
    computed directly from framework artifacts — no trace, no simulation.

    For every legal candidate the search engine obtains, from the
    transformed nest and its mapped dependence vectors alone:

    - a cheap {b rank estimate} ([score]) used to screen candidates so
      that only the most promising [--exact-topk] survivors per step are
      scored by the exact simulators ({!Itf_machine.Memsim} /
      {!Itf_machine.Parallel}); and
    - an {b admissible bound} ([bound]): a lower bound on the exact
      objective value of the candidate, used as a branch-and-bound
      cutoff against the incumbent exact score.

    The inputs are exactly the artifacts the paper's uniform mapping
    rules maintain: the transformed LB/UB/STEP information (interval
    analysis of the bound expressions, cf. {!Itf_bounds.Bmat}), the
    body's array subscripts as affine forms over the transformed index
    variables ({!Itf_bounds.Access}, which substitutes the generated
    initialization statements, so strides after Unimodular /
    ReversePermute / Block / Coalesce are visible), and the mapped
    {!Itf_dep.Depvec} set (innermost-carried reuse credit).

    Admissibility argument (checked over the fuzz corpus by
    [test_costmodel]):

    - locality: the cache starts cold and every line holds at most
      [line_bytes / elem_bytes] elements, so the misses of one run are at
      least [ceil(D / L)] summed over arrays, where [D] under-approximates
      the number of distinct elements certainly touched (guaranteed
      minimum trip counts, unguarded single-variable affine subscript
      dimensions only, zero as soon as any loop may be empty);
    - parallelism: {!Itf_machine.Parallel.time} charges a fixed
      {!Itf_machine.Parallel.body_cost} per innermost iteration and [max]
      over processors can never beat the mean, so the time is at least
      [iterations_min * body_cost / procs]. *)

type estimate = {
  score : float;  (** rank estimate of the exact objective (lower = better) *)
  bound : float;  (** admissible lower bound on the exact objective *)
}

type spec =
  | Locality of {
      config : Itf_machine.Cache.config;
      elem_bytes : int;
      params : (string * int) list;
    }
      (** tier-0 counterpart of {!Search.cache_misses}: same cache
          geometry, same synthetic array declarations (see
          {!default_bounds}). *)
  | Parallel of {
      procs : int;
      spawn_overhead : float;
      params : (string * int) list;
    }  (** tier-0 counterpart of {!Search.parallel_time}. *)

val default_bounds : params:(string * int) list -> int -> (int * int) list
(** The per-dimension declaration bounds the ready-made objectives use
    for an array of the given arity: [(-2m, 3m)] per dimension with
    [m = max 8 (max |param value|)]. The exact objectives declare their
    arrays with it (and fill them with {!Itf_exec.Env.fill_synthetic}),
    so the cost model's layout assumptions match the simulated
    environment. *)

val subtree_admissible : spec -> bool
(** Whether a candidate's [bound] also lower-bounds every {e descendant}
    (candidate extended by more templates), making it safe for
    branch-and-bound subtree pruning and not just final-winner pruning.

    True for locality: iteration-reordering transformations permute the
    address trace but never change the set of addresses touched, so the
    cold-footprint bound is invariant along a subtree. False for
    parallelism: a descendant can parallelize loops the candidate runs
    sequentially and legitimately beat the candidate's bound. *)

val estimate :
  spec ->
  ?refs:(unit -> Itf_bounds.Access.t) ->
  Itf_core.Framework.result ->
  estimate
(** [estimate spec result] runs the estimator. It never raises and never
    returns NaN: unanalyzable nests degrade to [bound = 0] with
    [score = 0] (rank first, let the exact tier decide). The engine
    keeps each child's estimate in its parent's expansion, so it runs
    once per child of an expanded parent.

    [refs] gives the result nest's array reference forms when the
    locality estimate asks for them (default:
    {!Itf_bounds.Access.of_nest} of the nest); the engine passes the
    candidate state's forms, which a child shares with its parent or
    maps from them ({!Itf_core.Legality.references}).

    [estimate spec] is an estimator with its own cell of per-root data:
    the array layout and, per reference in source order, its array's
    strides, footprint and slot, and the order the admissible bound sums
    the arrays in. It depends only on the root's references, which
    every candidate of the root shares (a template keeps the body), so
    one estimator (one per search in the engine) prepares it once per
    root ({!Itf_core.Framework.result}'s [root]), and checks each
    candidate's references against it before use. A candidate then
    reads its loop levels (an interval evaluation of its bounds, keyed
    by position, not by a table), flattens its forms' coefficients in
    level order, and performs the same float operations in the same
    order as an estimate that prepared everything afresh: every score
    and bound is bit-identical to it ([test_costmodel]'s oracle sweep). *)

val params_key : (string * int) list -> int list
(** A parameter list as a self-delimiting int list: its length, then
    each name as its length and character codes, followed by its
    value. *)

val fingerprint : spec -> int list
(** The spec as a self-delimiting int list, non-empty: everything an
    estimate depends on besides the result. Parent expansions are keyed
    on it. *)
