open Itf_ir
module Depvec = Itf_dep.Depvec
module Bmat = Itf_bounds.Bmat

type stage = {
  index : int;
  template : Template.t;
  nest_before : Nest.t;
  vectors_before : Depvec.t list;
}

type verdict =
  | Legal of { nest : Nest.t; vectors : Depvec.t list; stages : stage list }
  | Bounds_violation of { index : int; violations : Boundsmap.violation list }
  | Dependence_violation of { vector : Depvec.t }

(* Is the template's loop band rectangular — bounds and steps invariant in
   every enclosing loop variable? Controls whether Table 2's exact band
   entries are trustworthy (see {!Depmap.map_vector}). *)
let rectangular_bands bm (t : Template.t) =
  let band =
    match t with
    | Template.Block { i; j; _ }
    | Template.Coalesce { i; j; _ }
    | Template.Interleave { i; j; _ } -> Some (i, j)
    | Template.Unimodular _ | Template.Reverse_permute _
    | Template.Parallelize _ -> None
  in
  match band with
  | None -> false
  | Some (i, j) ->
    let ok = ref true in
    for m = i to j do
      for k = 0 to m - 1 do
        List.iter
          (fun w ->
            if not (Itf_bounds.Btype.leq (Bmat.btype bm w ~loop:m ~wrt:k) Itf_bounds.Btype.Invar)
            then ok := false)
          [ Bmat.L; Bmat.U; Bmat.S ]
      done
    done;
    !ok

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

(* One stage of [check] and [extend]: [t]'s bounds preconditions against
   [bm], the matrices of [nest], then its code and its mapped vectors. The
   published preconditions are necessary but not quite sufficient for
   every corner (e.g. a strided loop whose lower bound is a multi-term max
   cannot be step-normalized exactly); when code generation detects such a
   case it rejects, and the stage reports a bounds violation rather than
   crash. *)
let step ~bm ~index nest vectors (t : Template.t) =
  let violation reason =
    let violations = [ { Boundsmap.template = Template.name t; reason } ] in
    Error (Bounds_violation { index; violations })
  in
  match Boundsmap.check bm t with
  | _ :: _ as violations -> Error (Bounds_violation { index; violations })
  | [] -> (
    let rectangular_bands = rectangular_bands bm t in
    match Codegen.apply ~bmat:bm nest t with
    | nest' ->
      let vectors' = Depmap.map_set ~rectangular_bands ~nest t vectors in
      Ok
        ( demote_unsupported_pardo nest' vectors',
          vectors',
          { index; template = t; nest_before = nest; vectors_before = vectors } )
    | exception (Invalid_argument msg | Failure msg) ->
      violation (Boundsmap.Codegen_rejected { message = msg })
    | exception Itf_bounds.Fourier.Unbounded what ->
      violation (Boundsmap.Unbounded_space { direction = what }))

let check ?count ?vectors nest (seq : Sequence.t) =
  if not (Sequence.well_formed seq) then
    invalid_arg "Legality.check: sequence does not chain";
  (match seq with
  | t :: _ when Template.input_depth t <> Nest.depth nest ->
    invalid_arg "Legality.check: sequence does not start at the nest depth"
  | _ -> ());
  let vectors =
    match vectors with Some v -> v | None -> Itf_dep.Analysis.vectors nest
  in
  let rec go index nest vectors stages = function
    | [] -> (
      match Depvec.set_may_lex_negative vectors with
      | Some vector -> Dependence_violation { vector }
      | None -> Legal { nest; vectors; stages = List.rev stages })
    | t :: rest -> (
      bump count 1;
      match step ~bm:(Bmat.of_nest nest) ~index nest vectors t with
      | Ok (nest', vectors', stage) ->
        go (index + 1) nest' vectors' (stage :: stages) rest
      | Error violation -> violation)
  in
  match go 0 nest vectors [] seq with
  | Legal _ as ok -> ok
  | Bounds_violation _ as verdict -> (
    (* A sequence may violate stage preconditions while its reduction does
       not: e.g. skew-then-interchange fails ReversePermute's rectangular
       precondition on the skewed nest, but reduces to a single Unimodular
       that Figure 1 generates directly. Accept if the reduced sequence is
       legal; otherwise report the original failure. *)
    let reduced = Sequence.reduce seq in
    if reduced = seq then verdict
    else
      match go 0 nest vectors [] reduced with
      | Legal _ as ok -> ok
      | _ -> verdict)
  | other -> other

let is_legal ?vectors nest seq =
  match check ?vectors nest seq with Legal _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Resumable prefix states (incremental legality for search engines)   *)
(* ------------------------------------------------------------------ *)

(* What every state derived from one [start] shares: the root nest and
   its vectors. *)
type root = { r_nest : Nest.t; r_vectors : Depvec.t list }

type state = {
  s_nest : Nest.t;
  s_vectors : Depvec.t list;
  s_stages_rev : stage list;
  s_seq_rev : Template.t list;
  s_root : root;
  s_raw_failure : verdict option;
      (* [Some v]: the stage-by-stage path of this prefix fails with [v]
         and the prefix is legal only through its reduced sequence. Any
         extension must then replay the reduced sequence from the root,
         exactly as [check] would. *)
  s_bmat : Bmat.t option Atomic.t;
      (* The bound matrices of [s_nest], built by the first [extend] and
         read by every later one: the siblings of one parent all check
         their preconditions against the same matrices. An [Atomic] cell,
         not a [Lazy]: pool domains extend siblings of one memoised parent
         concurrently, and forcing one lazy value from two domains at once
         raises. A racing build stores an equal value. *)
}

(* The one constructor: every state gets a fresh matrix cell, so a cell
   never outlives the nest it was built for. *)
let make_state ~root ~raw_failure ~seq_rev nest vectors stages_rev =
  {
    s_nest = nest;
    s_vectors = vectors;
    s_stages_rev = stages_rev;
    s_seq_rev = seq_rev;
    s_root = root;
    s_raw_failure = raw_failure;
    s_bmat = Atomic.make None;
  }

let state_bmat st =
  match Atomic.get st.s_bmat with
  | Some bm -> bm
  | None ->
    let bm = Bmat.of_nest st.s_nest in
    Atomic.set st.s_bmat (Some bm);
    bm

let start ?vectors nest =
  let vectors =
    match vectors with Some v -> v | None -> Itf_dep.Analysis.vectors nest
  in
  make_state
    ~root:{ r_nest = nest; r_vectors = vectors }
    ~raw_failure:None ~seq_rev:[] nest vectors []

let state_nest st = st.s_nest
let state_vectors st = st.s_vectors

let state_verdict st =
  match Depvec.set_may_lex_negative st.s_vectors with
  | Some vector -> Dependence_violation { vector }
  | None ->
    Legal
      {
        nest = st.s_nest;
        vectors = st.s_vectors;
        stages = List.rev st.s_stages_rev;
      }

(* The appended stage failed its bounds preconditions on the stage-by-stage
   path; mirror [check]'s fallback: accept iff the reduced sequence is
   legal from the root, otherwise report the stage-by-stage failure. *)
let extend_fallback ?count st t raw_failure =
  let seq = List.rev (t :: st.s_seq_rev) in
  let reduced = Sequence.reduce seq in
  if reduced = seq then Error raw_failure
  else
    match check ?count ~vectors:st.s_root.r_vectors st.s_root.r_nest reduced with
    | Legal { nest; vectors; stages } ->
      Ok
        (make_state ~root:st.s_root ~raw_failure:(Some raw_failure)
           ~seq_rev:(t :: st.s_seq_rev) nest vectors (List.rev stages))
    | _ -> Error raw_failure

let extend ?count st (t : Template.t) =
  if Template.input_depth t <> Nest.depth st.s_nest then
    invalid_arg "Legality.extend: template does not chain with the state";
  match st.s_raw_failure with
  | Some raw ->
    (* The stage-by-stage path already fails inside the prefix, so the
       appended raw sequence fails identically; only the reduced path can
       accept it. *)
    extend_fallback ?count st t raw
  | None -> (
    bump count 1;
    let index = List.length st.s_seq_rev in
    match step ~bm:(state_bmat st) ~index st.s_nest st.s_vectors t with
    | Ok (nest', vectors', stage) ->
      Ok
        (make_state ~root:st.s_root ~raw_failure:None
           ~seq_rev:(t :: st.s_seq_rev) nest' vectors'
           (stage :: st.s_stages_rev))
    | Error raw -> extend_fallback ?count st t raw)

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
