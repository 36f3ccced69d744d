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
  nest_before : Itf_ir.Nest.t;
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
  ?count:int ref ->
  ?vectors:Itf_dep.Depvec.t list ->
  Itf_ir.Nest.t ->
  Sequence.t ->
  verdict
(** [check nest seq] — [vectors] defaults to {!Itf_dep.Analysis.vectors}
    on the nest. [count], when given, is incremented once per template
    stage application attempted (including reduced-sequence retries) —
    the instrumentation used to compare search engines.
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

(** {1 Resumable prefix states}

    Search engines grow candidate sequences one template at a time. A
    [state] carries the transformed nest, mapped dependence vectors and
    per-stage records of an already-checked prefix, so appending a template
    costs {e one} template application instead of replaying the whole
    prefix from the root (the transformation/nest separation of paper
    Section 5 makes the prefix state self-contained).

    A state also holds the LB/UB/STEP matrices of its nest (paper
    Section 4.3, {!Itf_bounds.Bmat}), which every template's bounds
    preconditions are checked against and Block code generation reads.
    They are built by the state's first {!extend} and shared by every
    later one, so the siblings of one parent pay for one build. The cell
    is domain-safe: search engines extend one state from several domains
    at once, and a racing build stores an equal value. *)

type state

val start : ?vectors:Itf_dep.Depvec.t list -> Itf_ir.Nest.t -> state
(** The empty-prefix state; [vectors] defaults to
    {!Itf_dep.Analysis.vectors} on the nest. *)

val extend :
  ?count:int ref -> state -> Template.t -> (state, verdict) Stdlib.result
(** [extend st t] appends one template: checks [t]'s bounds preconditions
    against the prefix nest, generates its code and maps the dependence
    vectors. Agrees with [check root (prefix @ [t])] up to the final
    dependence test (deferred to {!state_verdict}, since intermediate
    vector sets need not be legal — paper Section 3.2), including the
    reduced-sequence fallback on a bounds violation.
    @raise Invalid_argument if [t] does not chain with the state's depth. *)

val state_verdict : state -> verdict
(** Final dependence-vector test of the prefix; [Legal] carries the same
    nest/vectors/stages [check] would return for it. *)

val root_key : Itf_ir.Nest.t -> Itf_dep.Depvec.t list -> int list
(** [root_key nest vectors] names a root by its intern ids (the nest id
    is a memo-key name, never reused, see {!Itf_ir.Intern.nest_id}):
    [[nest id; number of vectors; vector ids...]]
    ({!Itf_ir.Intern.nest_id}, {!Itf_dep.Depvec.id}). The vectors are part
    of the name because [?vectors] may override the analysis, and the
    generated code and the mapped vectors depend on them. The vector
    count makes the list self-delimiting, so a key built by appending to
    it stays injective. *)

val state_root_key : state -> int list
(** [root_key] of the state's root nest and root vectors, computed once by
    {!start} and carried by every state derived from it (reduced-sequence
    fallback states included). *)

val state_nest : state -> Itf_ir.Nest.t
val state_vectors : state -> Itf_dep.Depvec.t list
val state_sequence : state -> Sequence.t
