(** Mutable execution environment: arrays, scalars, and interpreted
    functions.

    Arrays are dense integer arrays with per-dimension lower/upper bounds
    (Fortran-style, any base), stored row-major. Uninterpreted calls in
    expressions (e.g. the [colstr]/[rowidx] access functions of the paper's
    sparse-matrix example) are resolved against registered functions. *)

type t

type access_kind = Read | Write

type access = { array : string; flat : int; kind : access_kind }
(** [flat] is the row-major offset of the touched element — the "address"
    used by the cache simulator. *)

type array_info = private {
  los : int array;
  his : int array;
  strides : int array;  (** row-major; the last stride is always 1 *)
  data : int array;
}
(** The resolved layout of one declared array — exposed (read-only) so the
    compiled backend ({!Compile}) can specialize accesses once instead of
    re-resolving the name on every element touch. *)

val create : unit -> t

val declare_array : t -> string -> (int * int) list -> unit
(** [declare_array env name [(lo1, hi1); ...]] allocates a zero-filled array
    with the given inclusive per-dimension bounds.
    @raise Invalid_argument if already declared or a bound is empty. *)

val fill_synthetic : int array -> unit
(** [fill_synthetic data] sets entry [k] to [(k * 31) mod 97], the data
    every synthetic environment runs on: the search's simulators, the
    differential oracle, [loopt run] and the C program [loopt emit]
    writes all fill their arrays this way, so their checksums compare. *)

val declare_function : t -> string -> (int list -> int) -> unit
(** Gives an access function (a nest's [function] directive, as in the
    paper's sparse-matrix example) its values for {!Interp.run} and
    {!Compile}. No CLI path declares one: [loopt run] refuses nests with
    access functions, and the search only simulates nests without
    them. *)

val find_function : t -> string -> (int list -> int) option

val set_scalar : t -> string -> int -> unit
val get_scalar : t -> string -> int
(** @raise Not_found if unset. *)

val find_scalar : t -> string -> int option

val read : t -> string -> int list -> int
val write : t -> string -> int list -> int -> unit
(** @raise Invalid_argument on unknown arrays or out-of-bounds subscripts. *)

val call : t -> string -> int list -> int
(** Applies a registered function; ["abs"] and ["sgn"] are builtins. *)

val array_info : t -> string -> array_info
(** @raise Invalid_argument on undeclared arrays. *)

val array_data : t -> string -> int array
(** The raw backing store (row-major), e.g. to compare results. *)

val array_size : t -> string -> int

val set_tracer : t -> (access -> unit) option -> unit
(** When set, the tracer is invoked on every array read/write. *)

val snapshot : t -> (string * int array) list
(** Copies of all arrays, sorted by name — for result comparison. *)
