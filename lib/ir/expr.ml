type t =
  | Int of int
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Min of t * t
  | Max of t * t
  | Load of access
  | Call of string * t list

and access = { array : string; index : t list }

let int n = Int n
let var v = Var v
let zero = Int 0
let one = Int 1

let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let fmod a b = a - (b * fdiv a b)

(* Structural equality and ordering. Hand-rolled rather than the
   polymorphic primitives so hot comparisons short-circuit on physical
   equality (shared subtrees are common after substitution) and never pay
   the generic tag-dispatch walk. The order is identical to the one
   [Stdlib.compare] produced: constructors by declaration order, fields
   left to right. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Int x, Int y -> x = y
  | Var x, Var y -> String.equal x y
  | Neg x, Neg y -> equal x y
  | Add (a1, b1), Add (a2, b2)
  | Sub (a1, b1), Sub (a2, b2)
  | Mul (a1, b1), Mul (a2, b2)
  | Div (a1, b1), Div (a2, b2)
  | Mod (a1, b1), Mod (a2, b2)
  | Min (a1, b1), Min (a2, b2)
  | Max (a1, b1), Max (a2, b2) -> equal a1 a2 && equal b1 b2
  | Load a1, Load a2 -> String.equal a1.array a2.array && equal_list a1.index a2.index
  | Call (f, xs), Call (g, ys) -> String.equal f g && equal_list xs ys
  | _ -> false

and equal_list xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> equal x y && equal_list xs ys
  | _ -> false

let tag = function
  | Int _ -> 0
  | Var _ -> 1
  | Neg _ -> 2
  | Add _ -> 3
  | Sub _ -> 4
  | Mul _ -> 5
  | Div _ -> 6
  | Mod _ -> 7
  | Min _ -> 8
  | Max _ -> 9
  | Load _ -> 10
  | Call _ -> 11

let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Int x, Int y -> Int.compare x y
    | Var x, Var y -> String.compare x y
    | Neg x, Neg y -> compare x y
    | Add (a1, b1), Add (a2, b2)
    | Sub (a1, b1), Sub (a2, b2)
    | Mul (a1, b1), Mul (a2, b2)
    | Div (a1, b1), Div (a2, b2)
    | Mod (a1, b1), Mod (a2, b2)
    | Min (a1, b1), Min (a2, b2)
    | Max (a1, b1), Max (a2, b2) ->
      let c = compare a1 a2 in
      if c <> 0 then c else compare b1 b2
    | Load a1, Load a2 ->
      let c = String.compare a1.array a2.array in
      if c <> 0 then c else compare_list a1.index a2.index
    | Call (f, xs), Call (g, ys) ->
      let c = String.compare f g in
      if c <> 0 then c else compare_list xs ys
    | _ -> Int.compare (tag a) (tag b)

and compare_list xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs ys

let rec neg = function
  | Int n -> Int (-n)
  | Neg e -> e
  | Sub (a, b) -> sub b a
  | e -> Neg e

and add a b =
  match (a, b) with
  | Int x, Int y -> Int (x + y)
  | Int 0, e | e, Int 0 -> e
  | Add (e, Int x), Int y | Int y, Add (e, Int x) -> add e (Int (x + y))
  | Sub (e, Int x), Int y | Int y, Sub (e, Int x) ->
    if y - x >= 0 then add e (Int (y - x)) else sub e (Int (x - y))
  | e, Int n when n < 0 -> Sub (e, Int (-n))
  | Int n, e when n < 0 && n <> min_int -> Sub (e, Int (-n))
  | a, Neg b -> sub a b
  | Neg a, b -> sub b a
  | _ -> Add (a, b)

and sub a b =
  match (a, b) with
  | Int x, Int y -> Int (x - y)
  | e, Int 0 -> e
  | Add (e, Int x), Int y -> add e (Int (x - y))
  | Sub (e, Int x), Int y -> sub e (Int (x + y))
  | e, Int n when n < 0 -> add e (Int (-n))
  | a, Neg b -> add a b
  | a, Sub (b, c) when equal a b -> c
  | a, b when equal a b -> Int 0
  | _ -> Sub (a, b)

let mul a b =
  match (a, b) with
  | Int x, Int y -> Int (x * y)
  | Int 0, _ | _, Int 0 -> Int 0
  | Int 1, e | e, Int 1 -> e
  | Int (-1), e | e, Int (-1) -> neg e
  | _ -> Mul (a, b)

let div a b =
  match (a, b) with
  | Int x, Int y when y <> 0 -> Int (fdiv x y)
  | e, Int 1 -> e
  | _ -> Div (a, b)

let mod_ a b =
  match (a, b) with
  | Int x, Int y when y <> 0 -> Int (fmod x y)
  | _, Int 1 -> Int 0
  | _ -> Mod (a, b)

let min_ a b =
  match (a, b) with
  | Int x, Int y -> Int (Stdlib.min x y)
  | a, b when equal a b -> a
  | _ -> Min (a, b)

let max_ a b =
  match (a, b) with
  | Int x, Int y -> Int (Stdlib.max x y)
  | a, b when equal a b -> a
  | _ -> Max (a, b)

let min_list = function
  | [] -> invalid_arg "Expr.min_list: empty"
  | e :: es -> List.fold_left min_ e es

let max_list = function
  | [] -> invalid_arg "Expr.max_list: empty"
  | e :: es -> List.fold_left max_ e es

let ceil_div e c =
  if c <= 0 then invalid_arg "Expr.ceil_div: non-positive divisor";
  if c = 1 then e else div (add e (Int (c - 1))) (Int c)

let floor_div e c =
  if c <= 0 then invalid_arg "Expr.floor_div: non-positive divisor";
  div e (Int c)

(* Structural hash, compatible with [equal]. A hand-rolled fold (rather
   than [Hashtbl.hash]) so that deep expressions — skewed bounds grow with
   every composed transformation — hash on their full structure instead of
   the truncated prefix the polymorphic hash looks at. *)
let hash_combine h k = (h * 31) + k

let rec hash = function
  | Int n -> hash_combine 1 n
  | Var v -> hash_combine 2 (Hashtbl.hash v)
  | Neg e -> hash_combine 3 (hash e)
  | Add (a, b) -> hash_combine (hash_combine 4 (hash a)) (hash b)
  | Sub (a, b) -> hash_combine (hash_combine 5 (hash a)) (hash b)
  | Mul (a, b) -> hash_combine (hash_combine 6 (hash a)) (hash b)
  | Div (a, b) -> hash_combine (hash_combine 7 (hash a)) (hash b)
  | Mod (a, b) -> hash_combine (hash_combine 8 (hash a)) (hash b)
  | Min (a, b) -> hash_combine (hash_combine 9 (hash a)) (hash b)
  | Max (a, b) -> hash_combine (hash_combine 10 (hash a)) (hash b)
  | Load { array; index } ->
    List.fold_left
      (fun h e -> hash_combine h (hash e))
      (hash_combine 11 (Hashtbl.hash array))
      index
  | Call (f, args) ->
    List.fold_left
      (fun h e -> hash_combine h (hash e))
      (hash_combine 12 (Hashtbl.hash f))
      args

let rec fold_vars f acc = function
  | Int _ -> acc
  | Var v -> f acc v
  | Neg e -> fold_vars f acc e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
    fold_vars f (fold_vars f acc a) b
  | Load { index; _ } | Call (_, index) ->
    List.fold_left (fold_vars f) acc index

let free_vars e =
  List.sort_uniq String.compare (fold_vars (fun acc v -> v :: acc) [] e)

let rec fold_arrays f acc = function
  | Int _ | Var _ -> acc
  | Neg e -> fold_arrays f acc e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
    fold_arrays f (fold_arrays f acc a) b
  | Load { array; index } ->
    List.fold_left (fold_arrays f) (f acc array) index
  | Call (_, args) -> List.fold_left (fold_arrays f) acc args

let arrays e =
  List.sort_uniq String.compare (fold_arrays (fun acc a -> a :: acc) [] e)

let rec mentions v = function
  | Int _ -> false
  | Var w -> String.equal v w
  | Neg e -> mentions v e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
    mentions v a || mentions v b
  | Load { index = args; _ } | Call (_, args) -> List.exists (mentions v) args

let rec subst env e =
  match e with
  | Int _ -> e
  | Var v -> ( match List.assoc_opt v env with Some e' -> e' | None -> e)
  | Neg a -> neg (subst env a)
  | Add (a, b) -> add (subst env a) (subst env b)
  | Sub (a, b) -> sub (subst env a) (subst env b)
  | Mul (a, b) -> mul (subst env a) (subst env b)
  | Div (a, b) -> div (subst env a) (subst env b)
  | Mod (a, b) -> mod_ (subst env a) (subst env b)
  | Min (a, b) -> min_ (subst env a) (subst env b)
  | Max (a, b) -> max_ (subst env a) (subst env b)
  | Load { array; index } -> Load { array; index = List.map (subst env) index }
  | Call (f, args) -> (
    match (f, List.map (subst env) args) with
    | "abs", [ Int n ] -> Int (Stdlib.abs n)
    | "sgn", [ Int n ] -> Int (Stdlib.compare n 0)
    | f, args -> Call (f, args))

let simplify e = subst [] e

let to_int e = match simplify e with Int n -> Some n | _ -> None

(* Precedence climbing for readable output:
   0 = min/max/call atoms handled separately, additive = 1,
   multiplicative = 2, unary = 3, atom = 4. *)
let rec pp_prec prec ppf e =
  let paren p body =
    if prec > p then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Int n ->
    if n < 0 then paren 3 (fun ppf -> Format.fprintf ppf "%d" n)
    else Format.fprintf ppf "%d" n
  | Var v -> Format.fprintf ppf "%s" v
  | Neg a -> paren 3 (fun ppf -> Format.fprintf ppf "-%a" (pp_prec 4) a)
  | Add (a, b) ->
    paren 1 (fun ppf -> Format.fprintf ppf "%a + %a" (pp_prec 1) a (pp_prec 2) b)
  | Sub (a, b) ->
    paren 1 (fun ppf -> Format.fprintf ppf "%a - %a" (pp_prec 1) a (pp_prec 2) b)
  | Mul (a, b) ->
    paren 2 (fun ppf -> Format.fprintf ppf "%a * %a" (pp_prec 2) a (pp_prec 3) b)
  | Div (a, b) ->
    paren 2 (fun ppf -> Format.fprintf ppf "%a / %a" (pp_prec 2) a (pp_prec 3) b)
  | Mod (a, b) ->
    paren 2 (fun ppf ->
        Format.fprintf ppf "%a mod %a" (pp_prec 2) a (pp_prec 3) b)
  | Min (_, _) ->
    let rec flatten = function
      | Min (a, b) -> flatten a @ flatten b
      | e -> [ e ]
    in
    Format.fprintf ppf "min(%a)" pp_args (flatten e)
  | Max (_, _) ->
    let rec flatten = function
      | Max (a, b) -> flatten a @ flatten b
      | e -> [ e ]
    in
    Format.fprintf ppf "max(%a)" pp_args (flatten e)
  | Load a -> pp_access ppf a
  | Call (f, args) -> Format.fprintf ppf "%s(%a)" f pp_args args

and pp_args ppf = function
  | [] -> ()
  | [ e ] -> pp_prec 0 ppf e
  | e :: rest -> Format.fprintf ppf "%a, %a" (pp_prec 0) e pp_args rest

and pp_access ppf { array; index } =
  Format.fprintf ppf "%s(%a)" array pp_args index

let pp = pp_prec 0
let to_string e = Format.asprintf "%a" pp e
