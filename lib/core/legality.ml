open Itf_ir
module Depvec = Itf_dep.Depvec
module Bmat = Itf_bounds.Bmat

type stage = {
  index : int;
  template : Template.t;
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

(* One stage of [extend]: [t]'s bounds preconditions against
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
          { index; template = t; vectors_before = vectors } )
    | exception (Invalid_argument msg | Failure msg) ->
      violation (Boundsmap.Codegen_rejected { message = msg })
    | exception Itf_bounds.Fourier.Unbounded what ->
      violation (Boundsmap.Unbounded_space { direction = what }))

(* ------------------------------------------------------------------ *)
(* Prefix states: the one stage walk                                   *)
(* ------------------------------------------------------------------ *)

(* What every state derived from one [start] shares: the root nest and
   its vectors. *)
type root = { r_nest : Nest.t; r_vectors : Depvec.t list }

type path =
  | On of {
      nest : Nest.t;
      vectors : Depvec.t list;
      stages_rev : stage list;
      bmat : Bmat.t option Atomic.t;
          (* The bound matrices of [nest], built by the first [extend] and
             read by every later one: the siblings of one parent all check
             their preconditions against the same matrices. An [Atomic]
             cell, not a [Lazy]: pool domains extend siblings of one
             memoised parent concurrently, and forcing one lazy value from
             two domains at once raises. A racing build stores an equal
             value. *)
    }  (* every stage so far held *)
  | Off of verdict  (* the first stage to fail its bounds preconditions *)

type state = {
  root : root;
  seq_rev : Template.t list;
  depth : int;  (* output depth of the prefix *)
  path : path;
}

(* Every on-path state gets a fresh matrix cell, so a cell never outlives
   the nest it was built for. *)
let on nest vectors stages_rev =
  On { nest; vectors; stages_rev; bmat = Atomic.make None }

let of_root root =
  {
    root;
    seq_rev = [];
    depth = Nest.depth root.r_nest;
    path = on root.r_nest root.r_vectors [];
  }

let start ?vectors nest =
  let vectors =
    match vectors with Some v -> v | None -> Itf_dep.Analysis.vectors nest
  in
  of_root { r_nest = nest; r_vectors = vectors }

let extend ?count st (t : Template.t) =
  if Template.input_depth t <> st.depth then
    invalid_arg "Legality.extend: template does not chain with the state";
  let path =
    match st.path with
    | Off _ as off -> off
    | On { nest; vectors; stages_rev; bmat } -> (
      bump count 1;
      let bm =
        match Atomic.get bmat with
        | Some bm -> bm
        | None ->
          let bm = Bmat.of_nest nest in
          Atomic.set bmat (Some bm);
          bm
      in
      match step ~bm ~index:(List.length st.seq_rev) nest vectors t with
      | Ok (nest', vectors', stage) -> on nest' vectors' (stage :: stages_rev)
      | Error raw -> Off raw)
  in
  { st with seq_rev = t :: st.seq_rev; depth = Template.output_depth t; path }

let verdict ?count st =
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
      match final (List.fold_left (extend ?count) (of_root st.root) reduced) with
      | Legal _ as ok -> ok
      | _ -> raw)

let check ?vectors nest seq =
  verdict (List.fold_left extend (start ?vectors nest) seq)

let is_legal ?vectors nest seq =
  match check ?vectors nest seq with Legal _ -> true | _ -> false

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
