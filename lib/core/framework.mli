(** Top-level API of the iteration-reordering transformation framework.

    Typical use:

    {[
      let nest = ... (* a perfect loop nest, Itf_ir.Nest.t *) in
      let seq =
        [ Template.skew ~n:2 ~src:0 ~dst:1 ~factor:1;
          Template.interchange ~n:2 0 1 ]
      in
      match Framework.apply nest seq with
      | Ok { nest = transformed; vectors; _ } -> ...
      | Error verdict -> ...
    ]}

    Transformations are values, independent of any loop nest (paper
    Section 5): they can be built, composed with {!Sequence.compose},
    compared for legality against many nests, and only turned into code
    when a winner is chosen. *)

type result = {
  nest : Itf_ir.Nest.t;  (** the transformed nest, inits included *)
  vectors : Itf_dep.Depvec.t list;  (** its dependence vectors, by mapping *)
  derivation : int;
      (** The derivation id: a dense id naming the root nest, the root's
          dependence vectors and the raw template sequence this result
          was derived from, the only inputs of {!apply},
          {!check_root} and {!check_child}. It is the id of the result's
          entry in the one bounded [core.derivation] table, keyed
          [[parent derivation id; template id]] below its root's, so
          both give equal ids for equal inputs while the entries are
          resident. Memo tables key on it instead of on the generated
          nest, so scoring a result never interns that nest. Ids are
          never reused: a key evicted from the table gets a fresh id
          when it comes back, so a memo entry keyed on the old id misses
          but never answers for another candidate. Two spellings that
          generate the same nest get distinct ids. Like every intern id,
          it is for equality only, never ordering. *)
  root : int;
      (** The derivation id of the root this result derives from (for
          the root itself, its own [derivation]). It names the root
          nest and its vectors the way [derivation] names the whole
          candidate, so a fact proved of a root binds to that root's
          results by identity, never by the order results arrive in. *)
}

val apply :
  ?vectors:Itf_dep.Depvec.t list ->
  Itf_ir.Nest.t ->
  Sequence.t ->
  (result, Legality.verdict) Stdlib.result
(** Check legality and generate code. [vectors] overrides the dependence
    analyzer (used for nests whose dependences are known externally, e.g.
    paper Figure 2's examples). [Error] carries the failing verdict
    ({!Legality.check}). *)

val apply_exn :
  ?vectors:Itf_dep.Depvec.t list -> Itf_ir.Nest.t -> Sequence.t -> result
(** @raise Illegal on an illegal sequence. *)

exception Illegal of Legality.verdict

(** {1 Memoised verdicts}

    The search engine's hot path. A {!state} is a legal sequence prefix;
    {!check_child} appends one template without replaying the prefix
    ({!Legality.extend}, then {!Legality.verdict}), and {!check_root}
    starts from the root. {!check_root} followed by {!check_child}s and
    {!apply} agree on the verdict and the derivation id of every prefix
    whose own prefixes are all legal.

    Each answer comes from the candidate's entry in [core.derivation]:
    the first call computes the verdict outside any lock and stores it
    in the entry, every later call while the entry is resident returns
    it. Racing first calls store equal verdicts. A state gets its
    derivation id when it is made, so a flush of the table does not
    change it. *)

type state

type checked = {
  outcome : (state * result, Legality.verdict) Stdlib.result;
  apps : int;
      (** template applications performed by the call that computed the
          verdict; a stored verdict replays it, so counters built on it
          read the same warm or cold *)
}

val check_root : ?vectors:Itf_dep.Depvec.t list -> Itf_ir.Nest.t -> checked
(** The root; [vectors] defaults to {!Itf_dep.Analysis.vectors} on the
    nest. *)

(** {1 Children and annexes}

    What a search needs to expand one legal state many times without
    naming anything twice. A child is checked with {!check_child} on
    its {!child_entry}: a caller that keeps a child's entry checks it
    again without probing [core.derivation] or hashing the template. An
    annex is data an upper layer derives from a state (the search
    engine keeps a parent's expansion there); it lives with the state
    in its entry's verdict, so it is evicted with the entry and reading
    it probes no table. *)

type entry
(** An entry of [core.derivation], as the table holds it: a candidate's
    verdict cell and id. Nothing in an entry refers to another entry,
    so dropping one from the table frees its verdict and annexes once
    no search holds them; a caller that keeps child entries across
    searches should hold them weakly. *)

val child_entry : state -> int -> entry
(** [child_entry parent tid] is the entry of [parent] extended by the
    template whose {!Template.intern_id} is [tid]: one probe. *)

val check_child : ?built:int ref -> state -> Template.t -> entry -> checked
(** [check_child parent t e], with [e] a [child_entry parent] of [t]'s
    id (or an entry kept from such a call), is the verdict of [parent]
    extended by [t], answered from [e]: the stored verdict, or one computed and
    stored there. An entry evicted from the table since answers the
    same, and its id still names the same candidate. A computed verdict
    increments [built] once per family its legality check built
    ({!Legality.extend}): the parent's, on the first child checked, and
    those of a reduced-sequence replay.
    @raise Invalid_argument if [t] does not chain with the state's
    depth. *)

val references : state -> result -> Itf_bounds.Access.t * Legality.provenance
(** [references st r], with [r] the result of [st]: the array reference
    forms of [r]'s nest, kept in [st] and shared with its parent's where
    {!Legality.references} says so. A state whose raw prefix failed a
    stage (and was accepted through its reduced sequence) keeps none:
    its forms are computed on every call. *)

val stored : entry -> checked option
(** The verdict [e] already holds, if any: {!check_child} on [e] then
    returns it without computing anything. A caller uses this to tell a
    verdict it computes from one it reads back, say to time only the
    former. *)

type annex = ..
(** Extended by the layers that store data with a state. *)

val annex : state -> (annex -> 'a option) -> (annex list -> 'a * annex) -> 'a
(** [annex st find make] is the first of [st]'s annexes that [find]
    accepts; when none is, [make annexes] returns a value and an annex
    to add, given the state's annexes (newest first). A state keeps its
    16 newest annexes. Annexes are memos, safe to use from several
    domains: when two add to one state at once, one of the two annexes
    may be dropped, and is built again on its next use. *)
