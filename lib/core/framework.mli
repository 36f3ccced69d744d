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
          {!check_root} and {!check_extend}. It is the id of the result's
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

val map_vectors : Sequence.t -> Itf_dep.Depvec.t list -> Itf_dep.Depvec.t list
(** Dependence-vector image of a whole sequence (no bounds checks). *)

(** {1 Memoised verdicts}

    The search engine's hot path. A {!state} is a legal sequence prefix;
    {!check_extend} appends one template without replaying the prefix
    ({!Legality.extend}, then {!Legality.verdict}), and {!check_root}
    starts from the root. [check_root nest |> check_extend*] and
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

val check_extend : state -> Template.t -> checked
(** @raise Invalid_argument if the template does not chain with the
    state's depth. *)
