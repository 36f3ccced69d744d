open Itf_ir
module Intmat = Itf_mat.Intmat

type t =
  | Unimodular of { n : int; m : Intmat.t; minv : Intmat.t }
  | Reverse_permute of { n : int; rev : bool array; perm : int array }
  | Parallelize of { n : int; parflag : bool array }
  | Block of { n : int; i : int; j : int; bsize : Expr.t array }
  | Coalesce of { n : int; i : int; j : int }
  | Interleave of { n : int; i : int; j : int; isize : Expr.t array }

let unimodular m =
  if not (Intmat.is_unimodular m) then
    invalid_arg "Template.unimodular: matrix is not unimodular";
  Unimodular { n = Intmat.rows m; m; minv = Intmat.inverse_unimodular m }

let check_perm perm =
  let n = Array.length perm in
  let seen = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n || seen.(p) then
        invalid_arg "Template.reverse_permute: not a permutation";
      seen.(p) <- true)
    perm

let reverse_permute ~rev ~perm =
  if Array.length rev <> Array.length perm then
    invalid_arg "Template.reverse_permute: rev/perm length mismatch";
  if Array.length perm = 0 then
    invalid_arg "Template.reverse_permute: empty";
  check_perm perm;
  Reverse_permute { n = Array.length perm; rev = Array.copy rev; perm = Array.copy perm }

let parallelize parflag =
  if Array.length parflag = 0 then invalid_arg "Template.parallelize: empty";
  Parallelize { n = Array.length parflag; parflag = Array.copy parflag }

let check_range name n i j =
  if i < 0 || j >= n || i > j then
    invalid_arg (Printf.sprintf "Template.%s: bad loop range %d..%d in nest of %d" name i j n)

let block ~n ~i ~j ~bsize =
  check_range "block" n i j;
  if Array.length bsize <> j - i + 1 then
    invalid_arg "Template.block: bsize length must be j - i + 1";
  Block { n; i; j; bsize = Array.copy bsize }

let coalesce ~n ~i ~j =
  check_range "coalesce" n i j;
  Coalesce { n; i; j }

let interleave ~n ~i ~j ~isize =
  check_range "interleave" n i j;
  if Array.length isize <> j - i + 1 then
    invalid_arg "Template.interleave: isize length must be j - i + 1";
  Interleave { n; i; j; isize = Array.copy isize }

let interchange ~n a b =
  if a < 0 || b < 0 || a >= n || b >= n then
    invalid_arg "Template.interchange: position out of range";
  let perm = Array.init n (fun k -> if k = a then b else if k = b then a else k) in
  reverse_permute ~rev:(Array.make n false) ~perm

let reversal ~n k =
  if k < 0 || k >= n then invalid_arg "Template.reversal: position out of range";
  let rev = Array.make n false in
  rev.(k) <- true;
  reverse_permute ~rev ~perm:(Array.init n (fun k -> k))

let skew ~n ~src ~dst ~factor = unimodular (Intmat.skew n src dst factor)

let parallelize_one ~n k =
  if k < 0 || k >= n then
    invalid_arg "Template.parallelize_one: position out of range";
  let parflag = Array.make n false in
  parflag.(k) <- true;
  parallelize parflag

let input_depth = function
  | Unimodular { n; _ }
  | Reverse_permute { n; _ }
  | Parallelize { n; _ }
  | Block { n; _ }
  | Coalesce { n; _ }
  | Interleave { n; _ } -> n

let output_depth = function
  | Unimodular { n; _ } | Reverse_permute { n; _ } | Parallelize { n; _ } -> n
  | Block { n; i; j; _ } | Interleave { n; i; j; _ } -> n + (j - i + 1)
  | Coalesce { n; i; j } -> n - (j - i)

let to_matrix = function
  | Unimodular { m; _ } -> Some m
  | Reverse_permute { n; rev; perm } ->
    (* y_{perm k} = (rev k ? -1 : 1) * x_k *)
    Some
      (Intmat.make n n (fun r c ->
           if perm.(c) = r then if rev.(c) then -1 else 1 else 0))
  | Parallelize _ | Block _ | Coalesce _ | Interleave _ -> None

(* Explicit total order and hash over instantiations. [Intmat.t] is
   abstract and [Expr.t] may one day carry non-structural data, so the
   polymorphic comparisons are deliberately avoided. *)
let tag = function
  | Unimodular _ -> 0
  | Reverse_permute _ -> 1
  | Parallelize _ -> 2
  | Block _ -> 3
  | Coalesce _ -> 4
  | Interleave _ -> 5

let compare_array cmp a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go k =
      if k >= Array.length a then 0
      else
        let c = cmp a.(k) b.(k) in
        if c <> 0 then c else go (k + 1)
    in
    go 0

let compare (a : t) (b : t) =
  if a == b then 0
  else
  match (a, b) with
  | Unimodular { n = n1; m = m1; _ }, Unimodular { n = n2; m = m2; _ } ->
    let c = Int.compare n1 n2 in
    if c <> 0 then c else Intmat.compare m1 m2
  | ( Reverse_permute { n = n1; rev = r1; perm = p1 },
      Reverse_permute { n = n2; rev = r2; perm = p2 } ) ->
    let c = Int.compare n1 n2 in
    if c <> 0 then c
    else
      let c = compare_array Bool.compare r1 r2 in
      if c <> 0 then c else compare_array Int.compare p1 p2
  | Parallelize { n = n1; parflag = f1 }, Parallelize { n = n2; parflag = f2 }
    ->
    let c = Int.compare n1 n2 in
    if c <> 0 then c else compare_array Bool.compare f1 f2
  | ( Block { n = n1; i = i1; j = j1; bsize = b1 },
      Block { n = n2; i = i2; j = j2; bsize = b2 } )
  | ( Interleave { n = n1; i = i1; j = j1; isize = b1 },
      Interleave { n = n2; i = i2; j = j2; isize = b2 } ) ->
    let c = Int.compare n1 n2 in
    if c <> 0 then c
    else
      let c = Int.compare i1 i2 in
      if c <> 0 then c
      else
        let c = Int.compare j1 j2 in
        if c <> 0 then c else compare_array Expr.compare b1 b2
  | Coalesce { n = n1; i = i1; j = j1 }, Coalesce { n = n2; i = i2; j = j2 } ->
    let c = Int.compare n1 n2 in
    if c <> 0 then c
    else
      let c = Int.compare i1 i2 in
      if c <> 0 then c else Int.compare j1 j2
  | _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let hash (t : t) =
  let comb = Expr.hash_combine in
  let hash_bools h fs =
    Array.fold_left (fun h b -> comb h (if b then 1 else 2)) h fs
  in
  match t with
  | Unimodular { n; m; _ } -> comb (comb 1 n) (Intmat.hash m)
  | Reverse_permute { n; rev; perm } ->
    Array.fold_left comb (hash_bools (comb 2 n) rev) perm
  | Parallelize { n; parflag } -> hash_bools (comb 3 n) parflag
  | Block { n; i; j; bsize } ->
    Array.fold_left
      (fun h e -> comb h (Expr.hash e))
      (comb (comb (comb 4 n) i) j)
      bsize
  | Coalesce { n; i; j } -> comb (comb (comb 5 n) i) j
  | Interleave { n; i; j; isize } ->
    Array.fold_left
      (fun h e -> comb h (Expr.hash e))
      (comb (comb (comb 6 n) i) j)
      isize

(* Template ids: one structural probe of an append-only table; the
   first instantiation interned is its class's canonical value. Array
   fields are never mutated after the validated constructors copy them,
   so sharing is safe. *)
module HC = Itf_mat.Hashcons.Keyed (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let table : t HC.t = HC.create "core.template"
let intern_id t = HC.intern table t (fun _ -> t)

let name = function
  | Unimodular _ -> "Unimodular"
  | Reverse_permute _ -> "ReversePermute"
  | Parallelize _ -> "Parallelize"
  | Block _ -> "Block"
  | Coalesce _ -> "Coalesce"
  | Interleave _ -> "Interleave"

let pp_flags ppf flags =
  Array.iter (fun b -> Format.pp_print_char ppf (if b then 'T' else 'F')) flags

let pp_exprs ppf es =
  Format.fprintf ppf "[%s]"
    (String.concat " " (Array.to_list (Array.map Expr.to_string es)))

let pp ppf = function
  | Unimodular { n; m; _ } ->
    Format.fprintf ppf "Unimodular(n=%d, M=@[<v>%a@])" n Intmat.pp m
  | Reverse_permute { n; rev; perm } ->
    Format.fprintf ppf "ReversePermute(n=%d, rev=[%a], perm=[%s])" n pp_flags rev
      (String.concat " "
         (Array.to_list (Array.map string_of_int perm)))
  | Parallelize { n; parflag } ->
    Format.fprintf ppf "Parallelize(n=%d, parflag=[%a])" n pp_flags parflag
  | Block { n; i; j; bsize } ->
    Format.fprintf ppf "Block(n=%d, %d..%d, bsize=%a)" n i j pp_exprs bsize
  | Coalesce { n; i; j } -> Format.fprintf ppf "Coalesce(n=%d, %d..%d)" n i j
  | Interleave { n; i; j; isize } ->
    Format.fprintf ppf "Interleave(n=%d, %d..%d, isize=%a)" n i j pp_exprs isize
