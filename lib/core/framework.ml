type result = {
  nest : Itf_ir.Nest.t;
  vectors : Itf_dep.Depvec.t list;
  derivation : int;
  root : int;
}

exception Illegal of Legality.verdict

type annex = ..

(* A legal state carries the annexes upper layers derive from it, so
   reading them costs no probe, and they live in the state's verdict,
   so they are evicted with its entry. *)
type state = {
  prefix : Legality.state;
  derivation : int;
  root : int;
  mutable annexes : annex list;
}

type checked = {
  outcome : (state * result, Legality.verdict) Stdlib.result;
  apps : int;
}

(* Derivation ids. A legal result is a function of its root nest, the
   root's dependence vectors and the raw template sequence applied to
   them (paper §5: a transformation is a value independent of any nest),
   so a candidate is named by its parent plus the one template appended
   to it. A child's key is [[parent derivation id; template id]]; a
   root's is [-1 :: nest id] followed by each vector as its length and
   then a (tag, value) pair per entry. Ids are never negative, so the
   [-1] tag keeps the two kinds of key apart; within a root key every
   vector is length-prefixed, so the list is the whole name.

   An entry's value is a write-once cell for the candidate's legality
   verdict and the template applications the miss that computed it
   performed ([check_root], [check_child]). The builder only allocates
   the empty cell; the verdict is computed outside the shard lock, and
   racing fills store equal verdicts. An [entry] is the (cell, id) pair
   the table holds, so it lives exactly as long as the table or a
   caller keeps it.

   A derivation id is only ever a memo key, so the table is bounded,
   with a constant cap sized to the warm set (DESIGN §10). Ids are never
   reused: a key that comes back after its shard was flushed gets a
   fresh id, so a memo entry keyed on an old id misses and can never
   answer for another candidate. *)
module DTbl = Itf_mat.Hashcons.Keyed (Itf_mat.Hashcons.Ints_key)

let derivation_cap = 4096

type entry = checked option Atomic.t * int

let derivations : checked option Atomic.t DTbl.t =
  DTbl.create ~max_size:derivation_cap "core.derivation"

let entry key : entry = DTbl.intern derivations key (fun _ -> Atomic.make None)

let vector_key v rest =
  Array.length v
  :: Array.fold_right
       (fun e rest ->
         match e with
         | Itf_dep.Depvec.Dist n -> 0 :: n :: rest
         | Itf_dep.Depvec.Dir d -> 1 :: Itf_dep.Dir.tag d :: rest)
       v rest

let root_entry nest vectors =
  entry
    (-1 :: Itf_ir.Intern.nest_id nest :: List.fold_right vector_key vectors [])

let child_id derivation tid = entry [ derivation; tid ]

let root_vectors vectors nest =
  match vectors with Some v -> v | None -> Itf_dep.Analysis.vectors nest

let apply ?vectors nest seq =
  let vectors = root_vectors vectors nest in
  match Legality.check ~vectors nest seq with
  | Legality.Legal { nest = nest'; vectors = vectors'; _ } ->
    let root = snd (root_entry nest vectors) in
    let derivation =
      List.fold_left
        (fun id t -> snd (child_id id (snd (Template.intern_id t))))
        root seq
    in
    Ok { nest = nest'; vectors = vectors'; derivation; root }
  | verdict -> Error verdict

let apply_exn ?vectors nest seq =
  match apply ?vectors nest seq with
  | Ok r -> r
  | Error verdict -> raise (Illegal verdict)

(* The verdict in an entry's cell, computed and stored on first use.
   [make] builds the entry's prefix state; it and the final verdict share
   one counter of template applications. [root] is the derivation id of
   the entry's root: its own for a root entry, its parent's [root] for a
   child. *)
let checked ?built ?codegen ((cell, derivation) : entry) ~root make =
  match Atomic.get cell with
  | Some c -> c
  | None ->
    let count = ref 0 in
    let prefix = make count in
    let outcome =
      match Legality.verdict ~count ?built ?codegen prefix with
      | Legality.Legal { nest; vectors; _ } ->
        Ok
          ( { prefix; derivation; root; annexes = [] },
            { nest; vectors; derivation; root } )
      | verdict -> Error verdict
    in
    let c = { outcome; apps = !count } in
    Atomic.set cell (Some c);
    c

let stored ((cell, _) : entry) = Atomic.get cell

let check_root ?vectors nest =
  let vectors = root_vectors vectors nest in
  let ((_, root) as e) = root_entry nest vectors in
  checked e ~root (fun _ -> Legality.start ~vectors nest)

let child_entry parent tid = child_id parent.derivation tid

let check_child ?built ?codegen parent t entry =
  checked ?built ?codegen entry ~root:parent.root (fun count ->
      Legality.extend ~count ?built ?codegen parent.prefix t)

(* A prefix accepted through its reduced sequence holds no nest of its
   own: its forms are computed from the result's, and kept nowhere. *)
let references ?note st (result : result) =
  match Legality.references ?note st.prefix with
  | Some found -> found
  | None ->
    Option.iter (fun note -> note Legality.Computed) note;
    (Itf_bounds.Access.of_nest result.nest, Legality.Computed)

(* Annexes are memos: two domains adding to one state at once may each
   replace the list the other read, and the annex that loses is built
   again on its next use. Each write stores a whole immutable list, so
   a reader sees the old list or the new one. The list keeps the newest
   [annex_cap]: its length is the number of distinct uses of one state,
   which a client can vary (say, through parameters) while the entry
   stays resident. *)
let annex_cap = 16

let annex st find make =
  let seen = st.annexes in
  match List.find_map find seen with
  | Some x -> x
  | None ->
    let x, a = make seen in
    st.annexes <- a :: List.filteri (fun k _ -> k < annex_cap - 1) seen;
    x
