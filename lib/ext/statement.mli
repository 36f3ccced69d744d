(** Statement-reordering transformations: loop distribution and loop
    fusion.

    The paper scopes its framework to transformations that "only change the
    execution order of loop iterations ... without changing the contents of
    the loop body" and names distribution as future work (Section 6).
    This module provides it, with fusion, on top of the same substrates:

    - {!distribute} is Allen-Kennedy loop distribution: split the body into
      the strongly connected components of the statement dependence graph
      and emit one nest per component in topological order. Always legal by
      construction.
    - {!fuse_all} merges adjacent conformable nests while no
      fusion-preventing dependence exists (a statement of the second nest
      conflicting with a statement of the first at a later iteration).

    Distribution and fusion are inverses on distribution's output:
    refusing the components in order reproduces the original body. *)

open Itf_ir

val distribute : Nest.t -> Program.t
(** One nest per strongly connected component of the statement dependence
    graph, components in dependence-topological order, statements inside a
    component in original order. A single-statement or dependence-cycle
    body distributes to itself. *)

val fuse_all : Program.t -> Program.t
(** Greedily fuse adjacent nests while legal (a simple maximal-fusion
    pass). *)
