type ext = NegInf | Fin of int | PosInf
type t = ext * ext

let point d = (Fin d, Fin d)

let ext_add a b =
  match (a, b) with
  | NegInf, PosInf | PosInf, NegInf -> invalid_arg "Interval.add: inf - inf"
  | NegInf, _ | _, NegInf -> NegInf
  | PosInf, _ | _, PosInf -> PosInf
  | Fin x, Fin y -> Fin (x + y)

let ext_scale c = function
  | Fin x -> Fin (c * x)
  | NegInf -> if c > 0 then NegInf else if c < 0 then PosInf else Fin 0
  | PosInf -> if c > 0 then PosInf else if c < 0 then NegInf else Fin 0

let ext_le a b =
  match (a, b) with
  | NegInf, _ | _, PosInf -> true
  | PosInf, _ | _, NegInf -> false
  | Fin x, Fin y -> x <= y

let add (a, b) (c, d) = (ext_add a c, ext_add b d)
let neg (lo, hi) = (ext_scale (-1) hi, ext_scale (-1) lo)
let sub i j = add i (neg j)

let scale c (lo, hi) =
  if c >= 0 then (ext_scale c lo, ext_scale c hi)
  else (ext_scale c hi, ext_scale c lo)

let ext_div round x s =
  match x with
  | Fin v -> Fin (round v s)
  | NegInf -> if s > 0 then NegInf else PosInf
  | PosInf -> if s > 0 then PosInf else NegInf

let unscale s (lo, hi) =
  let floor = Itf_ir.Expr.fdiv and ceil v s = -Itf_ir.Expr.fdiv (-v) s in
  if s > 0 then (ext_div ceil lo s, ext_div floor hi s)
  else (ext_div ceil hi s, ext_div floor lo s)

let hull (la, ha) (lb, hb) =
  let lo = if ext_le la lb then la else lb in
  let hi = if ext_le ha hb then hb else ha in
  (lo, hi)

let contains (lo, hi) x = ext_le lo (Fin x) && ext_le (Fin x) hi
