(** Parser for transformation scripts — textual template sequences for the
    [loopt] command-line driver.

    One instantiation per line, [#] comments allowed; loop positions are
    0-based (outermost = 0). Sizes may be integers or symbolic expressions:

    {v
      # Appendix A pipeline
      permute 2 0 1          # move loop k to position perm(k)
      block 0 2 bj bk bi
      parallelize 0 2
      interchange 1 2
      coalesce 0 1
    v}

    Commands:
    - [interchange A B]
    - [reversal K]
    - [permute P0 P1 ... Pn-1]  (loop k moves to position Pk)
    - [revperm B0 ... Bn-1 P0 ... Pn-1]  (reversal flags, then positions)
    - [skew SRC DST FACTOR]
    - [unimodular R00 R01 ... ]  (n*n row-major integers)
    - [parallelize K1 [K2 ...]]
    - [block I J S_I ... S_J]
    - [coalesce I J]
    - [interleave I J S_I ... S_J]

    Because templates change the nest depth, commands are checked and
    instantiated left to right starting from the given input [depth]. *)

exception Error of { line : int; message : string }

val parse : depth:int -> string -> Itf_core.Sequence.t
(** @raise Error on unknown commands, arity mismatches, or a sequence that
    does not chain from [depth]. *)

val of_sequence : Itf_core.Sequence.t -> string
(** A textual script (one command per line) such that
    [parse ~depth (of_sequence seq) = seq] — the writer behind the fuzz
    harness's replayable reproducers. *)
