(** Compiled execution backend: slot-resolved closures.

    [compile] makes a one-time pass over a nest and its environment and
    produces a closure program: every scalar name is resolved to an integer
    slot in a flat frame, every array access is specialized against the
    array's resolved layout ({!Env.array_info} — data, strides, bases) with
    subscript linearization unrolled by arity, and loop bounds, guards and
    statements become OCaml closures over the frame. Running the compiled
    program performs no name resolution, no [Hashtbl] lookups, and no list
    traversals on the per-iteration path.

    The tree-walking {!Interp} remains the semantic oracle: on the same
    environment, a compiled run produces identical array contents,
    identical iteration/ordinal order (including [`Reverse] and
    [`Shuffle]d pardo orders — the permutation is shared), identical trace
    event sequences, and raises the same exceptions for out-of-bounds
    subscripts and division by zero ([test/test_compile.ml] asserts all of
    this differentially). Known deliberate differences: subscript-arity
    mismatches and undeclared arrays are reported at compile time instead
    of at the first faulting access, a zero step is reported with a
    ["Compile: ..."] message, and scalars are {e not} written back to the
    environment (arrays are shared with it; reads of scalars the
    environment does not define see 0 where the interpreter raises
    [Not_found]). *)

open Itf_ir

type t
(** A nest compiled against a fixed environment. Reusable: each {!run}
    re-reads the environment's scalar parameters (see {!sync}). *)

type pardo_order = Interp.pardo_order

type addr = {
  base_of : string -> int;
      (** line-aligned base address of an array, queried once per access
          site at compile time *)
  elem_bytes : int;
  touch : int -> unit;  (** called with [base + flat * elem_bytes] *)
}
(** Fused memory-model hook: with [?addr], every compiled load/store calls
    [touch] directly with the element's simulated byte address — the cache
    simulation runs inside the access closure instead of an [option]
    tracer doing a name lookup per access (cf. {!Itf_machine.Memsim}). *)

val compile : ?trace:(Env.access -> unit) -> ?addr:addr -> Env.t -> Nest.t -> t
(** Compile [nest] against [env]. All arrays the nest mentions must already
    be declared ([Invalid_argument] otherwise); functions may be registered
    later (unresolved calls fall back to the environment at run time).
    [?trace] compiles an {!Env.access} callback into every load/store —
    same event order as the interpreter's tracer. *)

(** {1 Address programs}

    A nest is {e static-control} when no array value can affect which
    accesses it makes: no load in a subscript, a guard, a loop bound or a
    scalar statement, no call there but the builtins [abs]/[sgn] (a
    registered function is opaque), and every store's right-hand side
    unable to raise (each divisor a nonzero literal, no call but
    [abs]/[sgn]). The test is syntactic. For such a nest the cache
    simulation needs only the address stream, so {!compile_addresses}
    builds a program that loads, computes and stores no values. *)

val static_control : Nest.t -> bool

type stream = starts:int array -> deltas:int array -> count:int -> unit
(** Replays [count] rounds of a per-site address stream: round [k]
    touches [starts.(s) + k * deltas.(s)] for each site [s] in order
    ({!Itf_machine.Cache.stream}). *)

val compile_addresses : addr -> stream:stream -> Env.t -> Nest.t -> t
(** The address program of a static-control nest. {!run} touches the same
    addresses in the same order as a {!compile}d program with the same
    [addr], raises the same exceptions at the same access, and reads and
    writes no array of the environment.

    Its innermost loop runs as a stream when every subscript and scalar
    statement is affine in the innermost index, with a coefficient that
    may be symbolic ([n * j]), once the statements are substituted (the
    paper's init statements, §2; {!Itf_bounds.Access}), and the body has
    no guard. At each entry of
    the loop the scalar statements run once, at the first iteration,
    every access site gets its first address and per-iteration delta,
    and both ends of every subscript are checked against the array's
    bounds; [stream] then replays the entry. An entry that fails its
    check, or whose statements or subscripts divide by zero, runs
    through the per-iteration closures instead, as does every entry of a
    nest whose subscripts are not all affine. Iteration hooks and a non-[`Forward]
    order on a [pardo] innermost loop also run the closures.
    @raise Invalid_argument if the nest is not {!static_control}. *)

type stream_stats = {
  entries : int;  (** innermost-loop entries replayed as streams *)
  fallbacks : int;  (** nonempty entries run through the closures *)
}

val stream_stats : t -> stream_stats
(** Totals over every {!run} of the program; both 0 for a program built
    by {!compile}. Entries with no iteration count in neither. *)

val run :
  ?pardo_order:pardo_order ->
  ?on_iteration:(int array -> unit) ->
  ?on_ordinals:(int array -> unit) ->
  t ->
  unit
(** Execute the compiled nest; same contract as {!Interp.run}. Scalar
    parameters are re-read from the environment first, so the same compiled
    program can be rerun after [Env.set_scalar]. The iteration hooks cost
    nothing when absent (the plain body closure runs unwrapped). *)

val closures : t -> int
(** The statement closures the program built: one per init and body
    statement, guarded ones included; 0 for {!compile_headers}. *)

(** {1 Frame access for machine models}

    {!Itf_machine.Parallel} walks loop headers without executing bodies;
    these entry points evaluate compiled bounds against the current frame
    directly. *)

val compile_headers : Env.t -> Nest.t -> t
(** A plan of [nest]'s loop headers alone: their bounds and steps
    compiled over a frame that holds the loop variables and the names
    the headers read, and no statement closure and no array site
    ({!closures} is 0). A header that reads an array needs it declared
    in [env]; one that reads a statement-defined scalar sees 0. {!run}
    runs its loops over an empty body. *)

val sync : t -> unit
(** Load the environment's scalars into the frame (slots without a value in
    the environment are zeroed). [run] does this automatically. *)

val depth : t -> int

val loop_kind : t -> int -> Nest.kind

val loop_bounds : t -> int -> int * int * int
(** [loop_bounds t level] evaluates level [level]'s compiled bounds against
    the current frame: [(lo, step, trip_count)].
    @raise Invalid_argument on a zero step. *)

val set_loop_var : t -> int -> int -> unit
(** [set_loop_var t level x] writes [x] into the frame slot of level
    [level]'s loop variable (visible to inner [loop_bounds]). *)
