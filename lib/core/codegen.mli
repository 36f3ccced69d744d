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

val apply : ?family:Family.t -> Itf_ir.Nest.t -> Template.t -> Itf_ir.Nest.t
(** [family], when given, must be the family of [nest] ({!Family.make}
    of [nest]): what the code of every child of [nest] shares is read
    from it, and built there on first use. The name set seeds the
    fresh-name supply of [Unimodular], [Block], [Coalesce] and
    [Interleave]; [Block] reads the bound matrices; [Unimodular] reads
    the step-normalized nest and its Fourier–Motzkin system, kept once
    per family, and substitutes the template's own [minv], kept once
    per template ({!Template.unimodular}). So the siblings of one
    parent, which {!Legality} generates from one family, pay for the
    shared part once. Without [family] a new one is built for the call:
    there is one code path.
    @raise Invalid_argument if the template's [n] differs from the nest
    depth. *)
