(** Data-dependence analysis for perfect loop nests.

    Computes the initial set of dependence vectors [D] for a nest, as the
    paper assumes is done "using standard data dependence analysis
    techniques" (Section 3.1). Implemented tests: exact per-dimension
    distance extraction (strong SIV), the GCD test, and Banerjee-style
    interval feasibility under hierarchical direction constraints, handling
    symbolic (unknown) loop bounds conservatively.

    Per the paper's recommendation, the result is expanded so that no vector
    contains summary direction values ([0+], [0-], [+-], [*]) unless a
    subscript is non-affine, in which case the conservative [*] entry
    remains. Flow, anti, and output dependences are all considered; the
    all-zero (loop-independent) vector is omitted because iteration-
    reordering transformations never reorder work within one iteration.

    Scalars assigned in the loop body are treated as 0-dimensional arrays:
    they conflict across {e all} iteration pairs, which correctly
    serializes nests that carry values through a scalar temporary. *)

open Itf_ir

type kind = Flow | Anti | Output

type dependence = {
  array : string;
  kind : kind;
  vector : Depvec.t;
}

val dependences : ?fm_calls:int ref -> Nest.t -> dependence list
(** All dependences of the nest, deduplicated per (array, kind).
    [fm_calls], when given, is incremented once per Fourier–Motzkin
    refutation the analysis asks for. Each reference pair builds its
    bound and subscript rows once; each sign vector adds only its own
    rows. Distinct pairs often build the same system, so the call keeps
    a table of the systems it refuted and runs each distinct one once
    (LU: 19 refutations, 9 systems). The table lives in the call: it is
    never keyed across nests. *)

val vectors : ?fm_calls:int ref -> Nest.t -> Depvec.t list
(** Just the dependence-vector set [D], deduplicated and subsumption-
    reduced — the input to the framework's legality test. Memoized by
    the nest's intern id; [fm_calls] as in {!dependences}, untouched
    when the memo answers. *)

val pp_dependence : Format.formatter -> dependence -> unit

(** {1 Statement-level dependences}

    Needed by statement-reordering transformations (loop distribution and
    fusion — the paper's Section 6 future work): which statement depends
    on which, and whether the dependence is carried by some loop or is
    loop-independent (same iteration, textual order). *)

type statement_edge = {
  src : int;  (** 0-based index into the nest's body *)
  dst : int;
  carried : bool;
      (** [true]: across iterations (the source's iteration precedes);
          [false]: loop-independent, within one iteration, [src] textually
          before [dst] *)
}

val statement_edges : Nest.t -> statement_edge list
(** Deduplicated edges of the statement dependence graph (flow, anti and
    output conflicts all induce edges). *)

val fusion_preventing : Nest.t -> first:Itf_ir.Stmt.t list ->
  second:Itf_ir.Stmt.t list -> bool
(** Fusing two conformable nests (bodies [first] and [second], running in
    the given nest's loops) is illegal exactly when a statement of
    [second] conflicts with a statement of [first] at a lexicographically
    {e later} iteration: originally every [first] instance ran before any
    [second] instance, but in the fused loop the later iteration runs
    after. Same-iteration conflicts are harmless because fusion keeps
    [first]'s statements textually before [second]'s. *)
