type t = Zero | Pos | Neg | NonNeg | NonPos | NonZero | Any

type signs = { neg : bool; zero : bool; pos : bool }

let signs = function
  | Zero -> { neg = false; zero = true; pos = false }
  | Pos -> { neg = false; zero = false; pos = true }
  | Neg -> { neg = true; zero = false; pos = false }
  | NonNeg -> { neg = false; zero = true; pos = true }
  | NonPos -> { neg = true; zero = true; pos = false }
  | NonZero -> { neg = true; zero = false; pos = true }
  | Any -> { neg = true; zero = true; pos = true }

let of_signs = function
  | { neg = false; zero = true; pos = false } -> Zero
  | { neg = false; zero = false; pos = true } -> Pos
  | { neg = true; zero = false; pos = false } -> Neg
  | { neg = false; zero = true; pos = true } -> NonNeg
  | { neg = true; zero = true; pos = false } -> NonPos
  | { neg = true; zero = false; pos = true } -> NonZero
  | { neg = true; zero = true; pos = true } -> Any
  | { neg = false; zero = false; pos = false } ->
    invalid_arg "Dir.of_signs: empty sign set"

let of_int x = if x > 0 then Pos else if x < 0 then Neg else Zero

let contains d x =
  let s = signs d in
  if x > 0 then s.pos else if x < 0 then s.neg else s.zero

let subset a b =
  let sa = signs a and sb = signs b in
  ((not sa.neg) || sb.neg) && ((not sa.zero) || sb.zero) && ((not sa.pos) || sb.pos)

let reverse d =
  let s = signs d in
  of_signs { neg = s.pos; zero = s.zero; pos = s.neg }

let union a b =
  let sa = signs a and sb = signs b in
  of_signs
    { neg = sa.neg || sb.neg; zero = sa.zero || sb.zero; pos = sa.pos || sb.pos }

(* merge_lex a b: sign set of a*N + b for N >> |b|: for each pair of
   realizable signs (sa, sb), the result sign is sa if sa <> 0, else sb. *)
let merge_lex a b =
  let sa = signs a and sb = signs b in
  of_signs
    {
      neg = sa.neg || (sa.zero && sb.neg);
      zero = sa.zero && sb.zero;
      pos = sa.pos || (sa.zero && sb.pos);
    }

(* Explicit constructor-order tag — [t] is a plain enum, so this equals
   what the polymorphic compare produced, without relying on it. *)
let tag = function
  | Zero -> 0
  | Pos -> 1
  | Neg -> 2
  | NonNeg -> 3
  | NonPos -> 4
  | NonZero -> 5
  | Any -> 6

let equal (a : t) (b : t) = tag a = tag b
let compare (a : t) (b : t) = Int.compare (tag a) (tag b)

let to_string = function
  | Zero -> "0"
  | Pos -> "+"
  | Neg -> "-"
  | NonNeg -> "0+"
  | NonPos -> "0-"
  | NonZero -> "+-"
  | Any -> "*"

let of_string = function
  | "0" -> Some Zero
  | "+" -> Some Pos
  | "-" -> Some Neg
  | "0+" | "+0" -> Some NonNeg
  | "0-" | "-0" -> Some NonPos
  | "+-" | "-+" | "#" -> Some NonZero
  | "*" -> Some Any
  | _ -> None

let pp ppf d = Format.pp_print_string ppf (to_string d)
