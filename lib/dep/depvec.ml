type elem = Dist of int | Dir of Dir.t

type t = elem array

let dist n = Dist n

let dir d = match d with Dir.Zero -> Dist 0 | d -> Dir d

let elem_signs = function
  | Dist n -> Dir.signs (Dir.of_int n)
  | Dir d -> Dir.signs d

let elem_dir = function Dist n -> Dir.of_int n | Dir d -> d

let elem_reverse = function
  | Dist n -> Dist (-n)
  | Dir d -> dir (Dir.reverse d)

let elem_union a b =
  match (a, b) with
  | Dist x, Dist y when x = y -> Dist x
  | a, b -> dir (Dir.union (elem_dir a) (elem_dir b))

let elem_contains e x =
  match e with Dist n -> n = x | Dir d -> Dir.contains d x

let elem_subset a b =
  match (a, b) with
  | Dist x, Dist y -> x = y
  | Dist x, Dir d -> Dir.contains d x
  | Dir da, Dir db -> Dir.subset da db
  | Dir da, Dist x -> x = 0 && Dir.equal da Dir.Zero

let elem_is_zero = function Dist 0 -> true | Dist _ -> false | Dir d -> Dir.equal d Dir.Zero

let of_list l = Array.of_list l

let zero n = Array.make n (Dist 0)

(* A lex-negative tuple exists iff some component can be negative while all
   earlier components can simultaneously be zero — components denote
   independent sets, so the choices combine freely. *)
let may_lex_negative (d : t) =
  let rec go k prefix_can_be_zero =
    if k >= Array.length d then false
    else
      let s = elem_signs d.(k) in
      if prefix_can_be_zero && s.Dir.neg then true
      else go (k + 1) (prefix_can_be_zero && s.Dir.zero)
  in
  go 0 true

let is_lex_positive_definite (d : t) =
  (* Every tuple is lex-positive iff no tuple is lex-negative and the
     all-zero tuple is not denoted. *)
  (not (may_lex_negative d))
  && not (Array.for_all (fun e -> (elem_signs e).Dir.zero) d)

let mem (d : t) (tuple : int array) =
  Array.length d = Array.length tuple
  && Array.for_all2 elem_contains d tuple

let subset (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 elem_subset a b

(* Explicit field-wise equality and ordering. The order reproduces what
   [Stdlib.compare] gave this type exactly — arrays by length first, then
   elementwise; [Dist _ < Dir _] by constructor tag; [Dir.t] by
   constructor order — because {!dedupe}'s [sort_uniq] output order is
   observable (vector lists in provenance and goldens). Hand-rolled so the
   type can never silently fall back to polymorphic compare if it gains a
   float or cyclic component. *)
let elem_equal a b =
  match (a, b) with
  | Dist x, Dist y -> Int.equal x y
  | Dir x, Dir y -> Dir.equal x y
  | Dist _, Dir _ | Dir _, Dist _ -> false

let elem_compare a b =
  match (a, b) with
  | Dist x, Dist y -> Int.compare x y
  | Dir x, Dir y -> Dir.compare x y
  | Dist _, Dir _ -> -1
  | Dir _, Dist _ -> 1

let equal (a : t) (b : t) =
  a == b || (Array.length a = Array.length b && Array.for_all2 elem_equal a b)

let compare (a : t) (b : t) =
  if a == b then 0
  else
    let c = Int.compare (Array.length a) (Array.length b) in
    if c <> 0 then c
    else
      let n = Array.length a in
      let rec go k =
        if k >= n then 0
        else
          let c = elem_compare a.(k) b.(k) in
          if c <> 0 then c else go (k + 1)
      in
      go 0

let set_may_lex_negative ds = List.find_opt may_lex_negative ds

let dedupe ds =
  let ds = List.sort_uniq compare ds in
  List.filter
    (fun d ->
      not
        (List.exists (fun d' -> (not (equal d d')) && subset d d') ds))
    ds

let pp_elem ppf = function
  | Dist n -> Format.fprintf ppf "%d" n
  | Dir d -> Dir.pp ppf d

let pp ppf (d : t) =
  Format.fprintf ppf "(";
  Array.iteri
    (fun k e ->
      if k > 0 then Format.fprintf ppf ", ";
      pp_elem ppf e)
    d;
  Format.fprintf ppf ")"

let to_string d = Format.asprintf "%a" pp d

let elem_of_string s =
  let s = String.trim s in
  match Dir.of_string s with
  | Some d -> dir d
  | None -> (
    match int_of_string_opt s with
    | Some n -> Dist n
    | None -> invalid_arg ("Depvec.of_string: bad element " ^ s))

let of_string s =
  let s = String.trim s in
  let s =
    if String.length s >= 2 && s.[0] = '(' && s.[String.length s - 1] = ')'
    then String.sub s 1 (String.length s - 2)
    else s
  in
  of_list (List.map elem_of_string (String.split_on_char ',' s))
