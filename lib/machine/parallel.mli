(** A simple parallel machine model for [pardo] loops.

    Iterations of a [pardo] loop are distributed round-robin over [procs]
    processors; the loop's simulated time is the maximum per-processor sum
    plus a per-loop spawn/join overhead. Sequential loops sum their
    iterations' times. The innermost body costs
    [body_cost = ops + accesses] time units per execution, computed from
    the statement list. Bounds are evaluated concretely, so triangular
    nests get realistic load imbalance. *)

open Itf_ir

val body_cost : Nest.t -> int
(** Unit cost of one innermost iteration (operation and access count of
    inits + body). *)

val time :
  ?spawn_overhead:float -> procs:int -> Itf_exec.Env.t -> Nest.t -> float
(** Simulated execution time, through the interpreter: the oracle for
    {!time_compiled}, which the search's parallel objective runs
    ([test_compile] checks the two agree bit for bit). The environment
    provides symbolic parameter values and array declarations; the nest
    is {e not} executed (only its iteration counts matter), but loop
    bounds are evaluated, so the environment must define the parameters
    they mention.
    @raise Invalid_argument if [procs < 1]. *)

val time_compiled :
  ?spawn_overhead:float -> procs:int -> Itf_exec.Env.t -> Nest.t -> float
(** As {!time}, but on a plan of the loop headers alone
    ({!Itf_exec.Compile.compile_headers}: no statement closure, no array
    site), evaluated over a slot frame instead of the interpreter. When
    every header reads only the variables of the levels enclosing it
    (with distinct loop variables), the innermost level is closed form:
    [count * unit_cost] for [do], [ceil (count / procs) * unit_cost +
    spawn_overhead] for a nonempty [pardo]. So is an outer level whose
    subtree's headers read none of its variables, when [spawn_overhead]
    is a non-negative integer: each of
    its iterations then costs the same integer [x], and [count * x], or
    [ceil (count / procs) * x + spawn_overhead], is exactly the sum and
    maximum {!time} forms, below 2^53. Every other level iterates in
    {!time}'s accumulation order, setting its variable as {!time} does
    (a header that reads its own or an inner variable sees the value the
    previous traversal left), so the result equals {!time} bit for
    bit. {!time} and {!speedup} are the test oracles. The environment
    must define the parameters the headers read, and declare the arrays
    they read (no other array). *)

val speedup :
  ?spawn_overhead:float -> procs:int -> Itf_exec.Env.t -> Nest.t -> float
(** [time] at 1 processor divided by [time] at [procs]. *)
