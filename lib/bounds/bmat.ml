open Itf_ir

type term = { coeffs : int array; base : Expr.t; nonlinear : bool array }

type t = {
  vars : string array;
  kinds : Nest.kind array;
  lowers : term list array;
  uppers : term list array;
  steps : term array;
}

type which = L | U | S

let term_of_expr ~outer (e : Expr.t) =
  let s = Affine.split ~vars:outer e in
  let i = List.length outer in
  let coeffs = Array.make i 0 in
  let nonlinear = Array.make i false in
  List.iteri
    (fun j v ->
      coeffs.(j) <- Affine.coeff s v;
      nonlinear.(j) <- List.mem v s.Affine.nonlinear_in)
    outer;
  { coeffs; base = s.Affine.base; nonlinear }

let of_nest (nest : Nest.t) =
  let loops = Array.of_list nest.Nest.loops in
  let n = Array.length loops in
  let vars = Array.map (fun l -> l.Nest.var) loops in
  let kinds = Array.map (fun l -> l.Nest.kind) loops in
  let outer i = Array.to_list (Array.sub vars 0 i) in
  let step_sign i =
    match Expr.to_int loops.(i).Nest.step with Some s -> s | None -> 1
  in
  let terms role i e =
    List.map (term_of_expr ~outer:(outer i))
      (Classify.bound_terms role ~step_sign:(step_sign i) e)
  in
  {
    vars;
    kinds;
    lowers = Array.init n (fun i -> terms Classify.Lower i loops.(i).Nest.lo);
    uppers = Array.init n (fun i -> terms Classify.Upper i loops.(i).Nest.hi);
    steps = Array.init n (fun i -> term_of_expr ~outer:(outer i) loops.(i).Nest.step);
  }

let depth t = Array.length t.vars

let terms_of t which i =
  match which with
  | L -> t.lowers.(i)
  | U -> t.uppers.(i)
  | S -> [ t.steps.(i) ]

let term_btype (tm : term) ~wrt : Btype.t =
  if wrt < Array.length tm.coeffs && tm.nonlinear.(wrt) then Btype.Nonlinear
  else if
    (* The whole term is a literal constant: no coeffs, no nonlinear parts,
       integer base. *)
    Array.for_all (fun c -> c = 0) tm.coeffs
    && Array.for_all not tm.nonlinear
    && Expr.to_int tm.base <> None
  then Btype.Const
  else if wrt < Array.length tm.coeffs && tm.coeffs.(wrt) <> 0 then Btype.Linear
  else Btype.Invar

let btype t which ~loop ~wrt =
  List.fold_left
    (fun acc tm -> Btype.join acc (term_btype tm ~wrt))
    Btype.Const
    (terms_of t which loop)

let term_to_expr t (tm : term) =
  let e = ref tm.base in
  Array.iteri
    (fun j c ->
      if c <> 0 then e := Expr.add !e (Expr.mul (Expr.int c) (Expr.var t.vars.(j))))
    tm.coeffs;
  !e

let lower_expr t i = Expr.max_list (List.map (term_to_expr t) t.lowers.(i))
let upper_expr t i = Expr.min_list (List.map (term_to_expr t) t.uppers.(i))
let step_expr t i = term_to_expr t t.steps.(i)

let pp_entry ppf (tms : term list) j =
  let cell tm =
    if j < Array.length tm.nonlinear && tm.nonlinear.(j) then "NL"
    else if j < Array.length tm.coeffs then string_of_int tm.coeffs.(j)
    else "."
  in
  match tms with
  | [ tm ] -> Format.fprintf ppf "%6s" (cell tm)
  | tms ->
    Format.fprintf ppf "%6s"
      ("<" ^ String.concat "," (List.map cell tms) ^ ">")

let pp_base ppf (tms : term list) =
  match tms with
  | [ tm ] -> Format.fprintf ppf "%a" Expr.pp tm.base
  | tms ->
    Format.fprintf ppf "<%s>"
      (String.concat ", " (List.map (fun tm -> Expr.to_string tm.base) tms))

let pp_matrix name t (select : int -> term list) ppf =
  let n = depth t in
  Format.fprintf ppf "@[<v>%s =@," name;
  for i = 0 to n - 1 do
    Format.fprintf ppf "  %s: [" t.vars.(i);
    pp_base ppf (select i);
    for j = 0 to i - 1 do
      Format.fprintf ppf " |";
      pp_entry ppf (select i) j
    done;
    Format.fprintf ppf "]@,"
  done;
  Format.fprintf ppf "@]"

let pp ppf t =
  pp_matrix "LB" t (fun i -> t.lowers.(i)) ppf;
  Format.pp_print_cut ppf ();
  pp_matrix "UB" t (fun i -> t.uppers.(i)) ppf;
  Format.pp_print_cut ppf ();
  pp_matrix "STEP" t (fun i -> [ t.steps.(i) ]) ppf

let pp ppf t = Format.fprintf ppf "@[<v>%a@]" pp t
