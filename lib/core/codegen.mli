(** Code generation: the loop-nest mapping rules of paper Tables 3 and 4.

    [apply nest t] produces the transformed nest: new loop headers, plus the
    initialization statements that define the original index variables as
    functions of the new ones (paper Figure 3). Initialization statements of
    successive templates accumulate in the order [INIT_k ... INIT_1] (paper
    Section 2, item 4b): each template prepends its own inits, so inner
    (later) templates' definitions come first and refer to the newest index
    variables.

    Preconditions are {e not} re-checked here — {!Legality} does that; on
    nests violating them this function may raise or produce wrong code
    (e.g. {!Itf_bounds.Fourier.Unbounded} from a non-affine [Unimodular]
    input).

    Notable behaviors, all matching the paper:
    - [Reverse_permute] reuses index-variable names and generates no inits;
      a reversed loop with runtime step [s] runs from
      [u - ((u - l) mod s)] down to [l] by [-s] (floor [mod] makes this
      uniform in the sign of [s], so no [abs]/[sgn] calls are needed).
    - [Block] generates only non-empty tiles: block-loop bounds substitute
      enclosing blocked variables by the block endpoint selected by each
      term's coefficient sign, and element loops clamp with [max]/[min]
      (Table 4).
    - [Unimodular] first normalizes non-unit steps to 1 via fresh iteration
      counters (adding their defining inits), then derives the new bounds by
      Fourier-Motzkin elimination and emits [x = M^{-1} y] inits. New index
      variables are named by doubling source names ([i] -> [ii]), preferring
      the variable a row is a pure copy of — reproducing Figure 1(b)'s
      [jj]/[ii].
    - [Coalesce] produces a 0-based unit-step loop over the product of the
      iteration counts and delinearizing [div]/[mod] inits; the result is
      [pardo] iff every coalesced loop was [pardo].
    - [Block]/[Interleave] sub-loops inherit the original loop's
      [do]/[pardo] kind. *)

val apply : ?bmat:Itf_bounds.Bmat.t -> Itf_ir.Nest.t -> Template.t -> Itf_ir.Nest.t
(** [bmat], when given, must be [Bmat.of_nest nest]: a caller that has
    already built the nest's matrices (the legality check, to test the
    template's preconditions) passes them on instead of paying for a
    second build.
    @raise Invalid_argument if the template's [n] differs from the nest
    depth. *)
