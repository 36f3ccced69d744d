open Itf_ir

type t = {
  coeffs : (string * int) list;
  base : Expr.t;
  nonlinear_in : string list;
}

let norm_coeffs cs =
  List.filter (fun (_, c) -> c <> 0) (List.sort compare cs)

let constant n = { coeffs = []; base = Expr.int n; nonlinear_in = [] }

let add_assoc cs (v, c) =
  match List.assoc_opt v cs with
  | None -> (v, c) :: cs
  | Some c0 -> (v, c0 + c) :: List.remove_assoc v cs

let combine f a b =
  let coeffs =
    List.fold_left add_assoc a.coeffs
      (List.map (fun (v, c) -> (v, f c)) b.coeffs)
  in
  {
    coeffs = norm_coeffs coeffs;
    base = (if f 1 = 1 then Expr.add a.base b.base else Expr.sub a.base b.base);
    nonlinear_in =
      List.sort_uniq String.compare (a.nonlinear_in @ b.nonlinear_in);
  }

let scale k a =
  if k = 0 && a.nonlinear_in = [] then constant 0
  else
    {
      coeffs = norm_coeffs (List.map (fun (v, c) -> (v, k * c)) a.coeffs);
      base = Expr.mul (Expr.int k) a.base;
      nonlinear_in = a.nonlinear_in;
    }

(* An opaque subterm: all designated variables inside it are nonlinear uses. *)
let opaque ~vars e =
  {
    coeffs = [];
    base = e;
    nonlinear_in = List.filter (fun v -> List.mem v vars) (Expr.free_vars e);
  }

let rec split ~vars (e : Expr.t) =
  match e with
  | Int n -> constant n
  | Var v ->
    if List.mem v vars then { coeffs = [ (v, 1) ]; base = Expr.zero; nonlinear_in = [] }
    else { coeffs = []; base = e; nonlinear_in = [] }
  | Neg a -> scale (-1) (split ~vars a)
  | Add (a, b) -> combine (fun c -> c) (split ~vars a) (split ~vars b)
  | Sub (a, b) -> combine (fun c -> -c) (split ~vars a) (split ~vars b)
  | Mul (a, b) -> (
    let sa = split ~vars a and sb = split ~vars b in
    match (eval_const sa, eval_const sb) with
    | Some ka, _ -> scale ka sb
    | _, Some kb -> scale kb sa
    | None, None ->
      (* Symbol * var products (e.g. n * i) and var * var products are not
         linear with a compile-time coefficient: treat as opaque. *)
      if sa.coeffs = [] && sa.nonlinear_in = [] && sb.coeffs = [] && sb.nonlinear_in = []
      then { coeffs = []; base = e; nonlinear_in = [] }
      else opaque ~vars e)
  | Div _ | Mod _ | Min _ | Max _ | Load _ | Call _ -> opaque ~vars e

and eval_const a =
  if a.coeffs = [] && a.nonlinear_in = [] then Expr.to_int a.base else None

let coeff a v = match List.assoc_opt v a.coeffs with Some c -> c | None -> 0

let is_affine a = a.nonlinear_in = []
