type result = {
  nest : Itf_ir.Nest.t;
  vectors : Itf_dep.Depvec.t list;
  stages : Legality.stage list;
  derivation : int;
}

exception Illegal of Legality.verdict

type state = { prefix : Legality.state; derivation : int }

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
   performed ([check_root], [check_extend]). The builder only allocates
   the empty cell; the verdict is computed outside the shard lock, and
   racing fills store equal verdicts.

   A derivation id is only ever a memo key, so the table is bounded,
   with a constant cap sized to the warm set (DESIGN §10). Ids are never
   reused: a key that comes back after its shard was flushed gets a
   fresh id, so a memo entry keyed on an old id misses and can never
   answer for another candidate. *)
module DTbl = Itf_mat.Hashcons.Keyed (Itf_mat.Hashcons.Ints_key)

let derivation_cap = 4096

let derivations : checked option Atomic.t DTbl.t =
  DTbl.create ~max_size:derivation_cap "core.derivation"

let entry key = DTbl.intern derivations key (fun _ -> Atomic.make None)

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

let child_entry derivation t = entry [ derivation; snd (Template.intern_id t) ]

let apply ?count ?vectors nest seq =
  let vectors =
    match vectors with Some v -> v | None -> Itf_dep.Analysis.vectors nest
  in
  match Legality.check ?count ~vectors nest seq with
  | Legality.Legal { nest = nest'; vectors = vectors'; stages } ->
    let derivation =
      List.fold_left
        (fun id t -> snd (child_entry id t))
        (snd (root_entry nest vectors))
        seq
    in
    Ok { nest = nest'; vectors = vectors'; stages; derivation }
  | verdict -> Error verdict

let apply_exn ?vectors nest seq =
  match apply ?vectors nest seq with
  | Ok r -> r
  | Error verdict -> raise (Illegal verdict)

let map_vectors seq vectors =
  List.fold_left (fun vs t -> Depmap.map_set t vs) vectors seq

(* Incremental interface: a state is an already-checked sequence prefix;
   extending appends one template in O(1) template applications. *)

let start ?vectors nest =
  let prefix = Legality.start ?vectors nest in
  { prefix; derivation = snd (root_entry nest (Legality.state_vectors prefix)) }

let extend ?count st t =
  Result.map
    (fun prefix -> { prefix; derivation = snd (child_entry st.derivation t) })
    (Legality.extend ?count st.prefix t)

let finish st =
  match Legality.state_verdict st.prefix with
  | Legality.Legal { nest; vectors; stages } ->
    Ok { nest; vectors; stages; derivation = st.derivation }
  | verdict -> Error verdict

(* The verdict in an entry's cell, computed and stored on first use.
   [make] builds the entry's prefix, counting its template
   applications. *)
let checked (cell, derivation) make =
  match Atomic.get cell with
  | Some c -> c
  | None ->
    let count = ref 0 in
    let outcome =
      Result.bind (make count) (fun prefix ->
          let st = { prefix; derivation } in
          Result.map (fun r -> (st, r)) (finish st))
    in
    let c = { outcome; apps = !count } in
    Atomic.set cell (Some c);
    c

let check_root nest =
  let prefix = Legality.start nest in
  checked (root_entry nest (Legality.state_vectors prefix)) (fun _ -> Ok prefix)

let check_extend parent t =
  checked (child_entry parent.derivation t) (fun count ->
      Legality.extend ~count parent.prefix t)
