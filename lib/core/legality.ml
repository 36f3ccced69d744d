open Itf_ir
module Depvec = Itf_dep.Depvec
module Access = Itf_bounds.Access

type stage = {
  index : int;
  template : Template.t;
  vectors_before : Depvec.t list;
}

type verdict =
  | Legal of { nest : Nest.t; vectors : Depvec.t list; stages : stage list }
  | Bounds_violation of { index : int; violations : Boundsmap.violation list }
  | Dependence_violation of { vector : Depvec.t }

let bump count n = match count with None -> () | Some r -> r := !r + n

(* Code generation propagates [pardo] markings structurally (a blocked
   parallel loop yields a parallel block loop and element loop, etc.), but
   a transformation can invalidate a propagated marking: blocking the
   inner loop of [do i; pardo j] with a dependence of distance (1, 1)
   leaves each tile internally order-free yet makes the block loop carry
   the dependence. Running a loop sequentially is always safe, so demote
   any marking the mapped vectors no longer support. *)
let demote_unsupported_pardo (nest : Nest.t) vectors =
  if List.for_all (fun (l : Nest.loop) -> l.Nest.kind = Nest.Do) nest.Nest.loops
  then nest
  else
    let par =
      Queries.parallelizable_loops ~depth:(Nest.depth nest) vectors
    in
    {
      nest with
      Nest.loops =
        List.mapi
          (fun k (l : Nest.loop) ->
            if l.Nest.kind = Nest.Pardo && not (List.mem k par) then
              { l with Nest.kind = Nest.Do }
            else l)
          nest.Nest.loops;
    }

(* One stage of [extend]: [t]'s bounds preconditions against the
   matrices of [family], the family of [nest], then its code and its
   mapped vectors, each reading what the siblings of [nest] share from
   [family]. The published preconditions are necessary but not quite
   sufficient for every corner (e.g. a strided loop whose lower bound is
   a multi-term max cannot be step-normalized exactly); when code
   generation detects such a case it rejects, and the stage reports a
   bounds violation rather than crash. *)
let step ?codegen ~family ~index nest vectors (t : Template.t) =
  let violation reason =
    let violations = [ { Boundsmap.template = Template.name t; reason } ] in
    Error (Bounds_violation { index; violations })
  in
  match Family.violations family t with
  | _ :: _ as violations -> Error (Bounds_violation { index; violations })
  | [] -> (
    Option.iter (fun c -> c.(Template.kind t) <- c.(Template.kind t) + 1) codegen;
    match Codegen.apply ~family nest t with
    | nest' ->
      let vectors' = Depmap.map_set ~family t vectors in
      Ok
        ( demote_unsupported_pardo nest' vectors',
          vectors',
          { index; template = t; vectors_before = vectors } )
    | exception (Invalid_argument msg | Failure msg) ->
      violation (Boundsmap.Codegen_rejected { message = msg })
    | exception Itf_bounds.Fourier.Unbounded what ->
      violation (Boundsmap.Unbounded_space { direction = what }))

(* ------------------------------------------------------------------ *)
(* Prefix states: the one stage walk                                   *)
(* ------------------------------------------------------------------ *)

(* What every state derived from one [start] shares: the root nest and
   its vectors, and the root state's family cell, so a replay from the
   root ([verdict]'s reduced-sequence fallback) reuses the family. *)
type root = {
  r_nest : Nest.t;
  r_vectors : Depvec.t list;
  r_family : Family.t option Atomic.t;
}

type path =
  | On of {
      nest : Nest.t;
      vectors : Depvec.t list;
      stages_rev : stage list;
      family : Family.t option Atomic.t;
          (* The family of [nest]: what its children share (the bound
             matrices, the name set, the Unimodular and per-band work,
             the reference forms; see {!Family}), built by the first
             [extend] and read by every later one, so the siblings of
             one parent pay for one build. An [Atomic] cell, not a
             [Lazy]: pool domains extend siblings of one memoised parent
             concurrently, and forcing one lazy value from two domains
             at once raises. Of two racing builds, the first stored
             is the one both use. *)
      origin : Family.origin;
          (* How [nest]'s reference forms follow from the parent's
             ({!Family.origin}): shared with the parent's family cell,
             mapped from it through the stage's template, or computed.
             A state keeps forms only in its own family, so a candidate
             that never becomes a parent keeps none. *)
    }  (* every stage so far held *)
  | Off of verdict  (* the first stage to fail its bounds preconditions *)

type state = {
  root : root;
  seq_rev : Template.t list;
  depth : int;  (* output depth of the prefix *)
  path : path;
}

let of_root root =
  {
    root;
    seq_rev = [];
    depth = Nest.depth root.r_nest;
    path =
      On
        {
          nest = root.r_nest;
          vectors = root.r_vectors;
          stages_rev = [];
          family = root.r_family;
          origin = Family.Own;
        };
  }

let start ?vectors nest =
  let vectors =
    match vectors with Some v -> v | None -> Itf_dep.Analysis.vectors nest
  in
  of_root { r_nest = nest; r_vectors = vectors; r_family = Atomic.make None }

(* Two domains may build one family at once; the first to store it wins,
   and only it counts the build. The loser returns the winner's family,
   as a later caller on one domain would find it. *)
let family_of ?built cell nest vectors origin =
  match Atomic.get cell with
  | Some f -> f
  | None ->
    let f = Family.make ~origin nest vectors in
    if Atomic.compare_and_set cell None (Some f) then begin
      bump built 1;
      f
    end
    else Option.get (Atomic.get cell)

let extend ?count ?built ?codegen st (t : Template.t) =
  if Template.input_depth t <> st.depth then
    invalid_arg "Legality.extend: template does not chain with the state";
  let path =
    match st.path with
    | Off _ as off -> off
    | On { nest; vectors; stages_rev; family; origin } -> (
      bump count 1;
      let family = family_of ?built family nest vectors origin in
      match
        step ?codegen ~family ~index:(List.length st.seq_rev) nest vectors t
      with
      | Ok (nest', vectors', stage) ->
        (* Every new on-path state gets a fresh family cell, so a family
           never outlives the nest it was built for. *)
        On
          {
            nest = nest';
            vectors = vectors';
            stages_rev = stage :: stages_rev;
            family = Atomic.make None;
            origin = Family.origin family t nest';
          }
      | Error raw -> Off raw)
  in
  { st with seq_rev = t :: st.seq_rev; depth = Template.output_depth t; path }

type provenance = Family.provenance =
  | Inherited
  | Mapped
  | Computed
  | Stored

let references ?note st =
  match st.path with
  | Off _ -> None
  | On { nest; family; origin; _ } ->
    Some
      (match (origin, Atomic.get family) with
      | Family.Inherit _, _ | _, None ->
        let ((_, how) as found) = Family.derive ?note origin nest in
        (match (how, note) with
        | (Mapped | Computed), Some note -> note how
        | _ -> ());
        found
      | _, Some f -> Family.forms ?note f.Family.refs)

let verdict ?count ?built ?codegen st =
  let final st =
    match st.path with
    | On { nest; vectors; stages_rev; _ } -> (
      match Depvec.set_may_lex_negative vectors with
      | Some vector -> Dependence_violation { vector }
      | None -> Legal { nest; vectors; stages = List.rev stages_rev })
    | Off raw -> raw
  in
  match st.path with
  | On _ -> final st
  | Off raw -> (
    (* A sequence may violate stage preconditions while its reduction does
       not: e.g. skew-then-interchange fails ReversePermute's rectangular
       precondition on the skewed nest, but reduces to a single Unimodular
       that Figure 1 generates directly. Accept if the reduced sequence is
       legal from the root; otherwise report the original failure. *)
    let seq = List.rev st.seq_rev in
    let reduced = Sequence.reduce seq in
    if reduced = seq then raw
    else
      match
        final
          (List.fold_left
             (extend ?count ?built ?codegen)
             (of_root st.root) reduced)
      with
      | Legal _ as ok -> ok
      | _ -> raw)

let check ?vectors nest seq =
  verdict (List.fold_left extend (start ?vectors nest) seq)

type reason =
  | Precondition of { index : int; violation : Boundsmap.violation }
  | Lex_negative of { vector : Depvec.t }

let reasons = function
  | Legal _ -> []
  | Bounds_violation { index; violations } ->
    List.map (fun violation -> Precondition { index; violation }) violations
  | Dependence_violation { vector } -> [ Lex_negative { vector } ]

let reason_label = function
  | Precondition { violation; _ } -> Boundsmap.reason_label violation.Boundsmap.reason
  | Lex_negative _ -> "lex-negative"

let pp_reason ppf = function
  | Precondition { index; violation } ->
    Format.fprintf ppf "step %d: %a" index Boundsmap.pp_violation violation
  | Lex_negative { vector } ->
    Format.fprintf ppf
      "transformed vector %a admits a lexicographically negative tuple"
      Depvec.pp vector

let pp_verdict ppf = function
  | Legal { vectors; _ } ->
    Format.fprintf ppf "legal; transformed dependence vectors:@ ";
    List.iter (fun v -> Format.fprintf ppf "%a " Depvec.pp v) vectors
  | Bounds_violation { index; violations } ->
    Format.fprintf ppf "illegal: bounds preconditions fail at step %d:@ " index;
    List.iter (fun v -> Format.fprintf ppf "%a@ " Boundsmap.pp_violation v) violations
  | Dependence_violation { vector } ->
    Format.fprintf ppf
      "illegal: transformed vector %a admits a lexicographically negative tuple"
      Depvec.pp vector
