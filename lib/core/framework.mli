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
  stages : Legality.stage list;  (** intermediate states, for inspection *)
  derivation : int;
      (** The derivation id: a dense id naming the triple (root nest, root
          dependence vectors, raw template sequence) this result was
          derived from — the only inputs of {!apply} and of
          [start |> extend* |> finish], so both give equal ids for equal
          triples while the triple is resident in the table. Memo tables key on it instead of on the generated
          nest, so scoring a result never interns that nest. Ids come
          from one bounded table and are never reused: a triple evicted
          from it gets a fresh id when it comes back, so a memo entry
          keyed on the old id misses but never answers for another
          triple. Two spellings that generate the same nest get
          distinct ids. Like every intern id, it is for equality only,
          never ordering. *)
}

val apply :
  ?count:int ref ->
  ?vectors:Itf_dep.Depvec.t list ->
  Itf_ir.Nest.t ->
  Sequence.t ->
  (result, Legality.verdict) Stdlib.result
(** Check legality and generate code. [vectors] overrides the dependence
    analyzer (used for nests whose dependences are known externally, e.g.
    paper Figure 2's examples). [count] accumulates template stage
    applications performed (see {!Legality.check}). [Error] carries the
    failing verdict. *)

val apply_exn :
  ?vectors:Itf_dep.Depvec.t list -> Itf_ir.Nest.t -> Sequence.t -> result
(** @raise Illegal on an illegal sequence. *)

exception Illegal of Legality.verdict

val map_vectors : Sequence.t -> Itf_dep.Depvec.t list -> Itf_dep.Depvec.t list
(** Dependence-vector image of a whole sequence (no bounds checks). *)

(** {1 Incremental application}

    The search engine's hot path: a {!state} is a legality-checked sequence
    prefix; {!extend} appends one template without replaying the prefix.
    [apply nest (seq @ [t])] and [start nest |> extend ... |> finish] agree
    (see {!Legality.extend} for the exact contract). *)

type state = Legality.state

val start : ?vectors:Itf_dep.Depvec.t list -> Itf_ir.Nest.t -> state

val extend :
  ?count:int ref -> state -> Template.t -> (state, Legality.verdict) Stdlib.result
(** [count], when given, accumulates template stage applications performed
    (instrumentation). *)

val finish : state -> (result, Legality.verdict) Stdlib.result
(** Run the final dependence test and package the prefix as a {!result}.
    Its [derivation] is that of [apply root seq], where [seq] is the raw
    sequence the state holds ({!Legality.state_sequence}) and [root] its
    root with the same vectors. *)
