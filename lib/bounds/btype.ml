type t = Const | Invar | Linear | Nonlinear

let rank = function Const -> 0 | Invar -> 1 | Linear -> 2 | Nonlinear -> 3

let leq a b = rank a <= rank b
let join a b = if rank a >= rank b then a else b

let to_string = function
  | Const -> "const"
  | Invar -> "invar"
  | Linear -> "linear"
  | Nonlinear -> "nonlinear"

let pp ppf t = Format.pp_print_string ppf (to_string t)
