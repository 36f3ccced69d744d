module Intmat = Itf_mat.Intmat

type t = Template.t list

let rec well_formed = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) ->
    Template.output_depth a = Template.input_depth b && well_formed rest

let is_identity (t : Template.t) =
  match t with
  | Template.Unimodular { m; _ } -> Intmat.is_identity m
  | Template.Reverse_permute { rev; perm; _ } ->
    Array.for_all not rev
    && (let ok = ref true in
        Array.iteri (fun k p -> if p <> k then ok := false) perm;
        !ok)
  | Template.Parallelize { parflag; _ } -> Array.for_all not parflag
  | Template.Block _ | Template.Coalesce _ | Template.Interleave _ -> false

(* Compose two adjacent instantiations into one when possible; [a] is
   applied first. *)
let compose2 (a : Template.t) (b : Template.t) : Template.t option =
  match (a, b) with
  | ( Template.Reverse_permute { n; rev = r1; perm = p1 },
      Template.Reverse_permute { rev = r2; perm = p2; _ } ) ->
    (* Loop k goes to p1.(k), then to p2.(p1.(k)); it is reversed when
       exactly one stage reverses it. Kept as a ReversePermute — it is
       preferable to an equivalent Unimodular (paper Section 4.2). *)
    let perm = Array.init n (fun k -> p2.(p1.(k))) in
    let rev = Array.init n (fun k -> r1.(k) <> r2.(p1.(k))) in
    Some (Template.Reverse_permute { n; rev; perm })
  | ( Template.Parallelize { n; parflag = f1 },
      Template.Parallelize { parflag = f2; _ } ) ->
    Some (Template.Parallelize { n; parflag = Array.init n (fun k -> f1.(k) || f2.(k)) })
  | _ -> (
    (* A Unimodular adjacent to any matrix-representable instantiation
       composes by matrix product (a reversed-permuted loop order equals
       the corresponding unimodular's). This is what lets Figure 1's
       "skew then interchange" collapse into one Unimodular whose bounds
       Fourier-Motzkin can generate. *)
    match (a, b, Template.to_matrix a, Template.to_matrix b) with
    | (Template.Unimodular _, _, Some m1, Some m2)
    | (_, Template.Unimodular _, Some m1, Some m2) ->
      Some (Template.unimodular (Intmat.mul m2 m1))
    | _ -> None)

(* [pass] preserves physical identity on unchanged suffixes (and returns
   the input itself when no rule fires), so the fixpoint test in [reduce]
   is a pointer comparison instead of a structural list compare. Every
   rewrite shortens the list, so "structurally unchanged" and "physically
   unchanged" coincide. *)
let rec pass seq =
  match seq with
  | [] -> seq
  | [ t ] -> if is_identity t then [] else seq
  | a :: (b :: rest as tl) ->
    if is_identity a then pass tl
    else (
      match compose2 a b with
      | Some c -> pass (c :: rest)
      | None ->
        let tl' = pass tl in
        if tl' == tl then seq else a :: tl')

(* Each pass only shortens the list or leaves it unchanged, so this
   terminates. *)
let rec reduce seq =
  let seq' = pass seq in
  if seq' == seq then seq else reduce seq'

(* Identity of a sequence for memoization: two sequences are the "same
   transformation state" when their reductions coincide (e.g. interchange
   twice = identity), so search caches key on [reduce]. *)
let compare (a : t) (b : t) =
  if a == b then 0 else List.compare Template.compare a b

(* ------------------------------------------------------------------ *)
(* Hash-consing and integer-keyed reduction                            *)
(* ------------------------------------------------------------------ *)

(* A sequence is named like a derivation: the empty sequence by the key
   [[]], a longer one by [[id of its prefix; id of its last template]].
   So a search that appends one interned move to a named prefix spells
   the result with one probe ({!extend_id}), and {!intern_id} of a
   whole sequence is one probe per template after its (cached) template
   interning. The canonical value of a key is its prefix's with the
   interned template appended. *)
module HC = Itf_mat.Hashcons.Keyed (Itf_mat.Hashcons.Ints_key)

let table : t HC.t = HC.create "core.sequence"

let empty_id () = HC.intern table [] (fun _ -> [])

let extend_id (prefix, pid) (t, tid) =
  HC.intern table [ pid; tid ] (fun _ -> prefix @ [ t ])

let intern_id (seq : t) : t * int =
  List.fold_left
    (fun named t -> extend_id named (Template.intern_id t))
    (empty_id ()) seq

(* Canonicalization memo: sequence id -> interned reduction. [reduce] is
   pure, so racing domains store the same canonical value; in the search
   engine every raw candidate of every step funnels through here, turning
   the repeated peephole walks (matrix products, identity checks) into one
   table probe per distinct raw sequence. *)
module RMemo = Itf_mat.Hashcons.Memo (Itf_mat.Hashcons.Int_key)

let reduce_table : (t * int) RMemo.t = RMemo.create "core.reduce"

let reduce_id (seq, sid) =
  RMemo.find_or_add reduce_table sid (fun () ->
      let r = reduce seq in
      if r == seq then (seq, sid) else intern_id r)

let pp ppf (seq : t) =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun k t ->
      if k > 0 then Format.pp_print_cut ppf ();
      Format.fprintf ppf "%d. %a" (k + 1) Template.pp t)
    seq;
  Format.fprintf ppf "@]"
