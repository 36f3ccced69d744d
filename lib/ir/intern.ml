(* Hash-consing of the IR: strings and expressions, plus the bounded
   table that names root nests.

   The IR variants stay public pattern-matchable types (every layer above
   matches on them), so interning is a side layer, not a representation
   change: [expr_i] returns the canonical physically-shared representative
   of a term plus its dense intern id. Keys are flat int lists over the
   ids of already-interned children — one table probe per node, no
   recursive structural hashing past the first interning of a term.
   Children are always interned before their parent, so a builder never
   re-enters the table it runs under — exactly the recursion scheme
   {!Itf_mat.Hashcons} supports — and the sharded tables make every
   function here safe to call from any thread on any domain
   concurrently. *)

module HC = Itf_mat.Hashcons
module Str = HC.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Tbl = HC.Keyed (HC.Ints_key)

let strings = Str.create "ir.string"
let str_id s = snd (Str.intern strings s)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let exprs : Expr.t Tbl.t = Tbl.create "ir.expr"

let rec expr_i (e : Expr.t) : Expr.t * int =
  let bin tag a b rebuild =
    let a', ai = expr_i a in
    let b', bi = expr_i b in
    Tbl.intern exprs [ tag; ai; bi ] (fun _ ->
        if a' == a && b' == b then e else rebuild a' b')
  in
  match e with
  | Expr.Int n -> Tbl.intern exprs [ 0; n ] (fun _ -> e)
  | Expr.Var v -> Tbl.intern exprs [ 1; str_id v ] (fun _ -> e)
  | Expr.Neg a ->
    let a', ai = expr_i a in
    Tbl.intern exprs [ 2; ai ] (fun _ -> if a' == a then e else Expr.Neg a')
  | Expr.Add (a, b) -> bin 3 a b (fun a b -> Expr.Add (a, b))
  | Expr.Sub (a, b) -> bin 4 a b (fun a b -> Expr.Sub (a, b))
  | Expr.Mul (a, b) -> bin 5 a b (fun a b -> Expr.Mul (a, b))
  | Expr.Div (a, b) -> bin 6 a b (fun a b -> Expr.Div (a, b))
  | Expr.Mod (a, b) -> bin 7 a b (fun a b -> Expr.Mod (a, b))
  | Expr.Min (a, b) -> bin 8 a b (fun a b -> Expr.Min (a, b))
  | Expr.Max (a, b) -> bin 9 a b (fun a b -> Expr.Max (a, b))
  | Expr.Load { array; index } ->
    let idx = List.map expr_i index in
    Tbl.intern exprs
      (10 :: str_id array :: List.map snd idx)
      (fun _ ->
        if List.for_all2 (fun (e', _) e0 -> e' == e0) idx index then e
        else Expr.Load { array; index = List.map fst idx })
  | Expr.Call (f, args) ->
    let xs = List.map expr_i args in
    Tbl.intern exprs
      (11 :: str_id f :: List.map snd xs)
      (fun _ ->
        if List.for_all2 (fun (e', _) e0 -> e' == e0) xs args then e
        else Expr.Call (f, List.map fst xs))

(* ------------------------------------------------------------------ *)
(* Root nests                                                          *)
(* ------------------------------------------------------------------ *)

(* A nest id names a request's root nest in the keys of the serve
   response cache, the dependence-vector memo, the root legality entry
   and every derivation id. Those are all memo keys, so the table is
   bounded and its ids are never reused: a nest seen again after its
   shard was flushed gets a fresh id and its memo entries miss. The key
   is the whole nest, compared and hashed structurally ([Nest.hash]
   folds over every node; [Hashtbl.hash] would stop after ten).

   The id is the root of every key chain: evicting a hot nest makes its
   response-cache entry, its vectors, its root legality entry and every
   derivation from it miss at once, one cold search. An entry pins the
   parsed nest, 1.2-1.7 KB for the e2e shapes, so the cap matches the
   dep.vectors cap (under 2 MB full) rather than the warm set of a few
   dozen hot nests. *)
module Nests = HC.Keyed (struct
  type t = Nest.t

  let equal = Nest.equal
  let hash = Nest.hash
end)

let nest_cap = 1024
let nests : unit Nests.t = Nests.create ~max_size:nest_cap "ir.nest"
let nest_id t = snd (Nests.intern nests t ignore)
