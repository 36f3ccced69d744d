type result = {
  nest : Itf_ir.Nest.t;
  vectors : Itf_dep.Depvec.t list;
  stages : Legality.stage list;
  derivation : int;
}

exception Illegal of Legality.verdict

(* Derivation ids. A legal result is a function of its root nest, the
   root's dependence vectors and the raw template sequence applied to
   them (paper §5: a transformation is a value independent of any nest),
   so that triple names it without looking at the generated code. The key
   is the root key (self-delimiting, see {!Legality.root_key}) followed
   by the raw sequence's intern id. The table is append-only: an id is
   never reused, so a memo entry keyed on one can never answer for
   another candidate. *)
module DTbl = Itf_mat.Hashcons.Keyed (Itf_mat.Hashcons.Ints_key)

let derivations : unit DTbl.t = DTbl.create "core.derivation"

let derive ~root_key seq =
  snd (DTbl.intern derivations (root_key @ [ Sequence.id seq ]) ignore)

(* A verdict of [seq] on the root named [root_key], as a result. *)
let package ~root_key seq = function
  | Legality.Legal { nest; vectors; stages } ->
    Ok { nest; vectors; stages; derivation = derive ~root_key seq }
  | verdict -> Error verdict

let apply ?count ?vectors nest seq =
  let vectors =
    match vectors with Some v -> v | None -> Itf_dep.Analysis.vectors nest
  in
  package
    ~root_key:(Legality.root_key nest vectors)
    seq
    (Legality.check ?count ~vectors nest seq)

let apply_exn ?vectors nest seq =
  match apply ?vectors nest seq with
  | Ok r -> r
  | Error verdict -> raise (Illegal verdict)

let map_vectors seq vectors =
  List.fold_left (fun vs t -> Depmap.map_set t vs) vectors seq

(* Incremental interface: a state is an already-checked sequence prefix;
   extending appends one template in O(1) template applications. *)

type state = Legality.state

let start = Legality.start

let extend = Legality.extend

let finish state =
  package
    ~root_key:(Legality.state_root_key state)
    (Legality.state_sequence state)
    (Legality.state_verdict state)
