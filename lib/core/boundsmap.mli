(** Loop-bounds preconditions for the kernel templates (first column of
    paper Tables 3 and 4).

    A template may be applied to a nest only if its bound expressions
    satisfy the template's preconditions over the
    [const ⊑ invar ⊑ linear ⊑ nonlinear] lattice; violating a precondition
    anywhere in a sequence makes the whole sequence illegal (paper
    Section 2, legality test part b). The checks are evaluated against the
    nest's LB/UB/STEP matrix representation (paper Section 4.3), never by
    re-walking the generated code.

    Every rejection carries a structured {!reason} — {e which} precondition
    failed, on {e which} loop bound, with respect to {e which} variable —
    so callers (the search engine's [--explain] table, the trace, metric
    labels) never have to parse a message string. *)

type reason =
  | Depth_mismatch of { expected : int; actual : int }
      (** The template's [n] does not match the nest depth. *)
  | Bound_type_exceeds of {
      which : Itf_bounds.Bmat.which;  (** lower, upper or step *)
      loop : int;  (** 0-based loop whose bound fails *)
      wrt : int;  (** 0-based enclosing loop the type is taken w.r.t. *)
      var : string;  (** that loop's index variable, for display *)
      ty : Itf_bounds.Btype.t;  (** actual [type(bound, var)] *)
      limit : Itf_bounds.Btype.t;  (** the template's precondition limit *)
    }  (** A Table-3/4 bound-type precondition fails. *)
  | Non_constant_step of { loop : int }
      (** The template requires a compile-time-constant step. *)
  | Codegen_rejected of { message : string }
      (** Code generation detected a corner the published preconditions
          admit but the bounds-mapping rules cannot express (reported by
          {!Legality}, not by {!check}). *)
  | Unbounded_space of { direction : string }
      (** Fourier-Motzkin found the transformed iteration space unbounded
          (reported by {!Legality}, not by {!check}). *)

type violation = { template : string; reason : reason }

val check : Itf_bounds.Bmat.t -> Template.t -> violation list
(** Empty list = all preconditions satisfied. Also reports a mismatch
    between the template's [n] and the nest depth. *)

val reason_label : reason -> string
(** Stable low-cardinality slug for metric labels and trace attributes:
    ["depth-mismatch"], ["bound-type"], ["non-constant-step"],
    ["codegen-rejected"], ["unbounded"]. *)

val pp_violation : Format.formatter -> violation -> unit
