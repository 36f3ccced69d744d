(** The single uniform legality test (paper Sections 2-4).

    [IsLegal(T, N)] holds iff

    + {b dependence-vector test} — mapping the nest's dependence vectors
      through every template of [T] yields a set with no lexicographically
      negative tuple. Intermediate stages need {e not} be legal, only the
      final set (paper Section 3.2);
    + {b loop-bounds test} — every template's bound preconditions hold at
      its stage (paper Section 4.1). Unlike the dependence test, this is
      checked per stage.

    The per-stage nests (needed to evaluate stage preconditions) are
    produced by {!Codegen}; each stage's preconditions are verified before
    its code is generated, so code generation never runs on a nest that
    violates them. *)

type stage = {
  index : int;  (** 0-based position in the sequence *)
  template : Template.t;
  vectors_before : Itf_dep.Depvec.t list;
}

type verdict =
  | Legal of {
      nest : Itf_ir.Nest.t;  (** final transformed nest *)
      vectors : Itf_dep.Depvec.t list;  (** final dependence-vector set *)
      stages : stage list;  (** per-stage intermediate states *)
    }
  | Bounds_violation of { index : int; violations : Boundsmap.violation list }
  | Dependence_violation of {
      vector : Itf_dep.Depvec.t;
          (** a final vector admitting a lex-negative tuple *)
    }

val check :
  ?vectors:Itf_dep.Depvec.t list -> Itf_ir.Nest.t -> Sequence.t -> verdict
(** [check nest seq] is [verdict] of [start nest] extended by each
    template of [seq] in turn ({!extend}). [vectors] defaults to
    {!Itf_dep.Analysis.vectors} on the nest.
    @raise Invalid_argument if [seq] does not chain with the nest's
    depth. *)

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Decision provenance}

    A rejection {!reason} is the structured form of a non-[Legal] verdict —
    the part an observability layer records and a user-facing [--explain]
    table prints. Bounds rejections reuse {!Boundsmap.reason} verbatim;
    the dependence test contributes its own constructor carrying the
    offending vector. *)

type reason =
  | Precondition of { index : int; violation : Boundsmap.violation }
      (** A per-stage bounds/codegen precondition failed at sequence
          position [index]. *)
  | Lex_negative of { vector : Itf_dep.Depvec.t }
      (** The final mapped vector set admits a lexicographically negative
          tuple (paper Section 3.2's test fails). *)

val reasons : verdict -> reason list
(** [[]] iff the verdict is [Legal]. *)

val reason_label : reason -> string
(** Stable low-cardinality slug for metric labels: delegates to
    {!Boundsmap.reason_label} for preconditions, ["lex-negative"] for the
    dependence test. *)

val pp_reason : Format.formatter -> reason -> unit

(** {1 Prefix states}

    {!check} is a fold: {!start} makes the empty prefix, {!extend}
    appends one template, {!verdict} judges the prefix. Search engines
    grow candidate sequences one template at a time, so they keep the
    state of a checked prefix and pay {e one} template application per
    extension instead of replaying the prefix from the root (the
    transformation/nest separation of paper Section 5 makes the prefix
    state self-contained).

    While every stage has held, a state carries the transformed nest, the
    mapped dependence vectors and the per-stage records. It also holds
    the {e family} of its nest ({!Family}): everything the stages of its
    children read of it. That is the LB/UB/STEP matrices (paper Section
    4.3, {!Itf_bounds.Bmat}), which every template's bounds
    preconditions are checked against and Block code generation reads;
    the name set every fresh-name supply starts from; for Unimodular
    children the precondition verdict, the step-normalized nest, its
    Fourier–Motzkin system and each vector's grid; and per loop band,
    the Block and Coalesce verdicts, whether the band is rectangular and
    Block's mapped vectors. The family is built by the state's first
    {!extend} and shared by every later one, so the siblings of one
    parent pay for one build; what it holds is keyed on the parent
    alone (per band, on the parent and the band), and a Unimodular
    child's own part is its matrix and the inverse its template
    carries. The state of the root is shared by every replay from it.
    The cell is domain-safe: search engines extend one state from
    several domains at once, and of two racing builds the first stored
    (by compare-and-set) is the one both use and the only one counted.

    The family also keeps the nest's array reference forms
    ({!references}), derived on first use. A child whose stage kept the
    parent's init and body statements and innermost loop variable (and,
    when a statement sets a scalar, its set of loop variables) shares
    the parent's cell instead ({!Family.origin}). A child the template
    maps exactly (again {!Family.origin}: a [ReversePermute], [Block] or
    [Parallelize] child that keeps the statements, a [Unimodular] child
    of a unit-step parent) derives its forms from the parent's through
    the template; any other computes them. A state keeps the forms only
    in its own family: a candidate that never becomes a parent holds
    nothing beyond its nest.

    Once a stage fails, the state holds that stage's verdict and later
    extensions only record their templates. *)

type state

val start : ?vectors:Itf_dep.Depvec.t list -> Itf_ir.Nest.t -> state
(** The empty-prefix state; [vectors] defaults to
    {!Itf_dep.Analysis.vectors} on the nest. *)

val extend :
  ?count:int ref -> ?built:int ref -> ?codegen:int array -> state ->
  Template.t -> state
(** [extend st t] appends one template. While every stage has held, it
    checks [t]'s bounds preconditions against the prefix nest, generates
    its code and maps the dependence vectors, and increments [count] by
    one; if the preconditions fail, the state keeps that failure. Once a
    stage has failed, it only records [t]. The dependence test is
    deferred to {!verdict}, since intermediate vector sets need not be
    legal (paper Section 3.2). [built] is incremented when the call
    builds the family of [st]'s nest (its first extension), and
    [codegen.(Template.kind t)] when it generates [t]'s code.
    @raise Invalid_argument if [t] does not chain with the state's depth. *)

val verdict :
  ?count:int ref -> ?built:int ref -> ?codegen:int array -> state -> verdict
(** The verdict of the whole prefix. If every stage held, it is the final
    dependence test. If a stage failed, the reduced-sequence fallback
    runs on the whole prefix: the prefix is accepted exactly when its
    {!Sequence.reduce}d form, replayed from the root by {!extend}, is
    [Legal]; otherwise the first failing stage's verdict is reported.
    [count] is incremented once per template stage the replay applies,
    so [extend] and [verdict] together count every stage application
    attempted — the instrumentation used to compare search engines —
    [built] once per family the replay builds and [codegen] once per
    template whose code it generates. *)

(** How {!references} found a state's forms. *)
type provenance = Family.provenance =
  | Inherited  (** in the cell the state shares with its parent *)
  | Mapped  (** from the parent's, through the stage's template, on this call *)
  | Computed  (** by {!Itf_bounds.Access.of_nest}, on this call *)
  | Stored  (** in the cell of the state's own family *)

val references :
  ?note:(provenance -> unit) -> state -> (Itf_bounds.Access.t * provenance) option
(** The array reference forms of the state's nest
    ({!Itf_bounds.Access.of_nest}): read from the cell the state shares
    with its parent, or from its own family's, filled on first use; or
    derived afresh (mapped from the parent's where {!Family.origin} allows,
    else computed) when the state has neither. Equal to
    [Access.of_nest] of the nest in every case. [note] hears of every
    derivation the call made, once per stored fill (the parent's
    included) and once for an unstored one, with [Mapped] or
    [Computed]: that is the call's whole work. [None] when a stage of
    the prefix failed: such a state holds no nest (a prefix the
    reduced-sequence fallback accepts gets its nest from the replay). *)
