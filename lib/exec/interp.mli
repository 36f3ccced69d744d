(** Interpreter for loop nests — the semantic oracle.

    Running a nest evaluates loop bounds outside-in (bounds may reference
    outer index variables and symbolic parameters held as scalars), executes
    the initialization statements and then the body on every innermost
    iteration, and respects floor division/modulo semantics identical to
    {!Itf_ir.Expr}'s constant folder.

    [pardo] loops are sequentially simulated, but their iteration order is
    controlled by [pardo_order]: a transformation that parallelizes a loop
    is semantically correct only if results are identical under {e any}
    order, so tests run both [`Forward] and adversarial orders. *)

open Itf_ir

type pardo_order =
  [ `Forward  (** same order as a sequential loop *)
  | `Reverse  (** worst-case adversarial reversal *)
  | `Shuffle of int  (** deterministic pseudo-random order from a seed *) ]

val iteration_values : Env.t -> Nest.loop -> int array
(** The sequence of values a loop variable takes, given the current
    environment (outer loop variables and parameters must be set).
    @raise Invalid_argument on a zero step. *)

val shuffle : int -> 'a array -> unit
(** The deterministic in-place Fisher-Yates permutation behind
    [`Shuffle seed] — exposed so {!Compile} reproduces the exact same
    pardo orders (the permutation depends only on the seed and the array
    length). *)

val run : ?pardo_order:pardo_order -> ?on_iteration:(int array -> unit) ->
  ?on_ordinals:(int array -> unit) -> ?after_inits:(unit -> unit) ->
  Env.t -> Nest.t -> unit
(** Execute the nest. [on_iteration] is called once per innermost iteration
    {e before} the body, with the current values of the nest's loop
    variables (outermost first) — used to record execution order.
    [on_ordinals] receives instead the per-loop {e iteration numbers}
    (0-based logical positions within each loop's value sequence, stable
    under pardo reordering) — the coordinates of the paper's execution
    instances (Definition 3.3). [after_inits] is called between the
    initialization statements and the body proper; at that point the
    {e original} index variables are defined in the environment, which lets
    tests relate transformed iterations back to source iterations. *)

val iteration_order : ?pardo_order:pardo_order -> Env.t -> Nest.t -> int array list
(** Just the sequence of iteration vectors, in execution order (the nest is
    executed; array state changes). *)
