(** C code emission for loop nests.

    Turns a (possibly transformed) nest into compilable C so the
    framework's output can actually be run by downstream users. Semantics
    match the interpreter exactly:

    - division and modulo are emitted through floor-semantics helpers
      ([ifloordiv]/[ifloormod]), matching {!Itf_ir.Expr} constant folding;
    - loop bounds and steps are evaluated once, before the loop, into
      [const] temporaries, like {!Itf_exec.Interp.run};
    - arrays become flat [long] buffers behind subscript macros honoring
      per-dimension lower bounds;
    - [pardo] loops emit [#pragma omp parallel for] when [openmp] is set,
      and plain sequential loops otherwise.

    [kernel] emits just a function; [program] emits a standalone program
    that allocates and deterministically fills every array
    ([data[k] = (k*31) % 97], as [Itf_exec.Env.fill_synthetic] does), runs the
    nest, and prints one [name checksum] line per array — which is how the
    end-to-end test compares a gcc-compiled transformed nest against the
    interpreter. *)

open Itf_ir

val expr_to_c : Expr.t -> string
(** C expression text (uses the helper functions for div/mod/min/max). *)

val kernel : ?openmp:bool -> name:string -> Nest.t -> string
(** A bare C function [static void <name>(void)] containing the scalar
    declarations, loops and statements. Array accesses are emitted as
    [A(i, j)] macro invocations and symbolic parameters as plain
    identifiers, so the surrounding translation unit must define both —
    {!program} does exactly that; use [kernel] when embedding into an
    existing harness. *)

val program :
  ?openmp:bool ->
  params:(string * int) list ->
  bounds:(string * (int * int) list) list ->
  Nest.t ->
  string
(** A complete C program. [params] gives concrete values to the symbolic
    parameters; [bounds] gives each array's per-dimension inclusive bounds
    (every array the nest references must appear).
    @raise Invalid_argument if an array is missing from [bounds] or the
    nest contains calls to uninterpreted functions other than
    [abs]/[sgn]. *)
