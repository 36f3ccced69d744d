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

val is_legal : ?vectors:Itf_dep.Depvec.t list -> Itf_ir.Nest.t -> Sequence.t -> bool

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
    the LB/UB/STEP matrices of its nest (paper Section 4.3,
    {!Itf_bounds.Bmat}), which every template's bounds preconditions are
    checked against and Block code generation reads. They are built by
    the state's first {!extend} and shared by every later one, so the
    siblings of one parent pay for one build. The cell is domain-safe:
    search engines extend one state from several domains at once, and a
    racing build stores an equal value. Once a stage fails, the state
    holds that stage's verdict and later extensions only record their
    templates. *)

type state

val start : ?vectors:Itf_dep.Depvec.t list -> Itf_ir.Nest.t -> state
(** The empty-prefix state; [vectors] defaults to
    {!Itf_dep.Analysis.vectors} on the nest. *)

val extend : ?count:int ref -> state -> Template.t -> state
(** [extend st t] appends one template. While every stage has held, it
    checks [t]'s bounds preconditions against the prefix nest, generates
    its code and maps the dependence vectors, and increments [count] by
    one; if the preconditions fail, the state keeps that failure. Once a
    stage has failed, it only records [t]. The dependence test is
    deferred to {!verdict}, since intermediate vector sets need not be
    legal (paper Section 3.2).
    @raise Invalid_argument if [t] does not chain with the state's depth. *)

val verdict : ?count:int ref -> state -> verdict
(** The verdict of the whole prefix. If every stage held, it is the final
    dependence test. If a stage failed, the reduced-sequence fallback
    runs on the whole prefix: the prefix is accepted exactly when its
    {!Sequence.reduce}d form, replayed from the root by {!extend}, is
    [Legal]; otherwise the first failing stage's verdict is reported.
    [count] is incremented once per template stage the replay applies,
    so [extend] and [verdict] together count every stage application
    attempted — the instrumentation used to compare search engines. *)
