(** Replayable reproducer files for fuzz failures.

    A reproducer is plain text with three sections:

    {v
      # what went wrong (free-form comments)
      [params]
      n = 7
      [nest]
      do i = 0, 4
        a(i, i) = b(i) + 1
      enddo
      [script]
      interchange 0 1
    v}

    The nest section is the surface loop language ({!Itf_ir.Nest.pp}
    output); the script section is the transformation script language
    ({!Script.of_sequence} output) — so reproducers both round-trip
    mechanically and stay hand-editable. *)

exception Error of string

val to_string : ?note:string -> Gen.case -> string

val save : ?note:string -> string -> Gen.case -> unit
val load : string -> Gen.case
(** @raise Error (prefixed with the path) on malformed files. *)
