(** The three-way differential oracle.

    A case is judged by running its transformation sequence through
    {!Itf_core.Legality.check} and then:

    - [Legal] — the original nest is executed by the tree-walking
      interpreter (the oracle); the transformed nest must leave identical
      array contents under the interpreter (all pardo orders), the
      compiled backend, and — when a C compiler is on [PATH] — the
      emitted standalone C program (compared by per-array checksum).
    - [Dependence_violation] — the legality-soundness cross-check forces
      code generation anyway and looks for a concrete dependence-order
      violation in the traces; a rejection it cannot confirm is reported
      as [`Unconfirmed] (checker possibly too conservative — logged, not
      fatal).
    - [Bounds_violation] — counted, nothing to compare. *)

type backend = [ `Interp | `Compiled | `C ]

val backend_of_name : string -> backend option

type divergence = { leg : string; detail : string }

type outcome =
  | Ok_equivalent
  | Rejected_bounds
  | Rejected_dependence of [ `Confirmed | `Unconfirmed ]
  | Skipped of string
      (** the original nest itself faults (e.g. symbolic-step rejection),
          so there is no reference to compare against *)
  | Diverged of divergence list  (** the bug report *)

val cc_available : unit -> bool
(** Whether a C compiler ([cc], [gcc] or [clang]) is on [PATH]; probed
    once. The [`C] leg is silently skipped without one. *)

val make_env : params:(string * int) list -> Itf_ir.Nest.t -> Itf_exec.Env.t
(** Environment with every referenced array declared over
    [Gen.array_lo .. Gen.array_hi] per dimension and filled by
    {!Itf_exec.Env.fill_synthetic} (the C emitter's convention), plus all
    symbolic parameters bound ([params] first, any forgotten ones
    defaulted). *)

val run_case :
  ?backends:backend list ->
  ?orders:Itf_exec.Interp.pardo_order list ->
  ?check_memsim:bool ->
  params:(string * int) list ->
  Itf_ir.Nest.t ->
  Itf_core.Sequence.t ->
  outcome
(** Judge one (nest, sequence, params) case. Defaults:
    [backends = [`Interp; `Compiled]], pardo orders forward, reverse and
    a fixed shuffle, [check_memsim = false]. With [check_memsim], the
    transformed nest's cache simulation must agree three ways:
    {!Itf_machine.Memsim.run} and [run_compiled] on stats and final
    arrays, and {!Itf_machine.Memsim.simulate} with [run] on stats or on
    the exception raised. *)
