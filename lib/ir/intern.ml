(* Hash-consing of the IR: strings, expressions, statements, nests.

   The IR variants stay public pattern-matchable types (every layer above
   matches on them), so interning is a side layer, not a representation
   change: [expr]/[stmt]/[nest] return the canonical physically-shared
   representative of a term plus its dense intern id. Keys are flat int
   lists over the ids of already-interned children — one table probe per
   node, no recursive structural hashing past the first interning of a
   term. Children are always interned before their parent, so a builder
   never re-enters the table it runs under — exactly the recursion scheme
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

let expr e = fst (expr_i e)
let expr_id e = snd (expr_i e)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let stmts : Stmt.t Tbl.t = Tbl.create "ir.stmt"

let rel_tag = function
  | Stmt.Lt -> 0
  | Stmt.Le -> 1
  | Stmt.Gt -> 2
  | Stmt.Ge -> 3
  | Stmt.Eq -> 4
  | Stmt.Ne -> 5

let rec stmt_i (s : Stmt.t) : Stmt.t * int =
  match s with
  | Stmt.Store (({ array; index } : Expr.access), rhs) ->
    let idx = List.map expr_i index in
    let rhs', ri = expr_i rhs in
    Tbl.intern stmts
      (0 :: str_id array :: ri :: List.map snd idx)
      (fun _ ->
        if rhs' == rhs && List.for_all2 (fun (e', _) e0 -> e' == e0) idx index
        then s
        else Stmt.Store ({ array; index = List.map fst idx }, rhs'))
  | Stmt.Set (v, rhs) ->
    let rhs', ri = expr_i rhs in
    Tbl.intern stmts [ 1; str_id v; ri ] (fun _ ->
        if rhs' == rhs then s else Stmt.Set (v, rhs'))
  | Stmt.Guard { lhs; rel; rhs; body } ->
    let lhs', li = expr_i lhs in
    let rhs', ri = expr_i rhs in
    let bs = List.map stmt_i body in
    Tbl.intern stmts
      (2 :: rel_tag rel :: li :: ri :: List.map snd bs)
      (fun _ ->
        if
          lhs' == lhs && rhs' == rhs
          && List.for_all2 (fun (s', _) s0 -> s' == s0) bs body
        then s
        else Stmt.Guard { lhs = lhs'; rel; rhs = rhs'; body = List.map fst bs })

let stmt s = fst (stmt_i s)

(* ------------------------------------------------------------------ *)
(* Nests                                                               *)
(* ------------------------------------------------------------------ *)

let nests : Nest.t Tbl.t = Tbl.create "ir.nest"

let nest_i (t : Nest.t) : Nest.t * int =
  let loops =
    List.map
      (fun (l : Nest.loop) ->
        let lo', loi = expr_i l.Nest.lo in
        let hi', hii = expr_i l.Nest.hi in
        let step', si = expr_i l.Nest.step in
        let l' =
          if lo' == l.Nest.lo && hi' == l.Nest.hi && step' == l.Nest.step then l
          else { l with Nest.lo = lo'; hi = hi'; step = step' }
        in
        ( l',
          [
            str_id l.Nest.var;
            loi;
            hii;
            si;
            (match l.Nest.kind with Nest.Do -> 0 | Nest.Pardo -> 1);
          ] ))
      t.Nest.loops
  in
  let inits = List.map stmt_i t.Nest.inits in
  let body = List.map stmt_i t.Nest.body in
  (* Field counts prefix each section so the flat key is unambiguous
     (every loop contributes exactly five ints). *)
  let key =
    List.length loops
    :: List.concat_map snd loops
    @ (List.length inits :: List.map snd inits)
    @ List.map snd body
  in
  Tbl.intern nests key (fun _ ->
      if
        List.for_all2 (fun (l', _) l0 -> l' == l0) loops t.Nest.loops
        && List.for_all2 (fun (s', _) s0 -> s' == s0) inits t.Nest.inits
        && List.for_all2 (fun (s', _) s0 -> s' == s0) body t.Nest.body
      then t
      else
        {
          Nest.loops = List.map fst loops;
          inits = List.map fst inits;
          body = List.map fst body;
        })

let nest t = fst (nest_i t)
let nest_id t = snd (nest_i t)
