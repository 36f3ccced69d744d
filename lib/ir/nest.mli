(** Perfect loop nests — the objects the framework transforms.

    A nest is an ordered list of loops (outermost first), a list of
    initialization statements (paper Figure 3: they define the original index
    variables as functions of the new ones and run at the top of the body on
    every innermost iteration), and the unchanged loop body. *)

type kind = Do | Pardo  (** sequential / parallel loop (paper Figure 3) *)

type loop = {
  var : string;
  lo : Expr.t;
  hi : Expr.t;
  step : Expr.t;
  kind : kind;
}

type t = { loops : loop list; inits : Stmt.t list; body : Stmt.t list }

val make : ?inits:Stmt.t list -> loop list -> Stmt.t list -> t
(** @raise Invalid_argument on duplicate loop variables or empty nest. *)

val loop : ?kind:kind -> ?step:Expr.t -> string -> Expr.t -> Expr.t -> loop
(** [loop v lo hi] is a sequential loop with step 1 by default. *)

val depth : t -> int

val loop_vars : t -> string list
(** Loop variables, outermost first. *)

val all_vars : t -> string list
(** Every variable name occurring anywhere (loop vars, bounds, inits, body);
    used to generate fresh names. *)

val symbolic_params : t -> string list
(** Free variables of the nest that are not loop variables and not defined by
    init statements (e.g. the array size [n]). *)

val arrays_read : t -> string list
val arrays_written : t -> string list

val array_arities : t -> (string * int) list
(** Every array the inits and body load or store, with its subscript
    count, sorted by [compare]. An array used with two counts gets the
    last one in walk order (a store's array, then its subscripts, then
    its right-hand side). The framework never rewrites a body, so every
    nest a transformation derives has the same arities as its source. *)

val equal : t -> t -> bool

val hash : t -> int
(** Structural hash compatible with [equal]: loop headers (variables,
    bounds, steps, kinds), init statements and body all contribute. *)

val pp : Format.formatter -> t -> unit
(** Renders in the paper's concrete syntax: [do i = lo, hi, step] /
    [pardo ...] ... [enddo]. *)

val to_string : t -> string
