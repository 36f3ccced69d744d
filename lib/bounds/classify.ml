open Itf_ir

type role = Lower | Upper | Step

let rec flatten_max (e : Expr.t) =
  match e with Max (a, b) -> flatten_max a @ flatten_max b | e -> [ e ]

let rec flatten_min (e : Expr.t) =
  match e with Min (a, b) -> flatten_min a @ flatten_min b | e -> [ e ]

let bound_terms role ~step_sign e =
  match (role, step_sign >= 0) with
  | Lower, true | Upper, false -> flatten_max e
  | Upper, true | Lower, false -> flatten_min e
  | Step, _ -> [ e ]
