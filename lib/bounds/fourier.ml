open Itf_ir
module Intmat = Itf_mat.Intmat

type ineq = { coeffs : int array; base : Expr.t }

type system = { vars : string array; ineqs : ineq list }

let ineq coeffs base = { coeffs; base }

exception Unbounded of string

(* Divide an inequality by the gcd of its coefficients when the base is a
   literal constant (sound for >= 0 with a positive divisor): rounding the
   constant down is integer tightening, since sum(c/g * y) >= -b/g implies
   sum >= ceil(-b/g) = -floor(b/g). Symbolic bases are left alone. *)
let normalize (q : ineq) =
  let g = Array.fold_left Intmat.gcd 0 q.coeffs in
  if g <= 1 then q
  else
    match Expr.to_int q.base with
    | Some b ->
      { coeffs = Array.map (fun c -> c / g) q.coeffs; base = Expr.int (Expr.fdiv b g) }
    | None -> q

(* Explicit comparator for the FM inner loop: coefficient vectors first
   (cheap int comparisons), then the base expression via [Expr.compare].
   Polymorphic compare here was both slower on the hot path and fragile
   should [Expr.t] ever gain a non-structural field. *)
let compare_ineq (a : ineq) (b : ineq) =
  let la = Array.length a.coeffs and lb = Array.length b.coeffs in
  if la <> lb then Int.compare la lb
  else
    let rec go k =
      if k >= la then Expr.compare a.base b.base
      else
        let c = Int.compare a.coeffs.(k) b.coeffs.(k) in
        if c <> 0 then c else go (k + 1)
    in
    go 0

let dedupe ineqs =
  List.sort_uniq compare_ineq (List.map normalize ineqs)

(* Highest index with a nonzero coefficient, or -1. *)
let level (q : ineq) =
  let l = ref (-1) in
  Array.iteri (fun k c -> if c <> 0 then l := k) q.coeffs;
  !l

(* The part of [q] excluding variable [k]: sum_{j<>k} c_j y_j + base. *)
let rest_expr (vars : string array) (q : ineq) k =
  let e = ref q.base in
  Array.iteri
    (fun j c ->
      if j <> k && c <> 0 then
        e := Expr.add !e (Expr.mul (Expr.int c) (Expr.var vars.(j))))
    q.coeffs;
  !e

let eliminate_pairs ineqs k =
  let pos = List.filter (fun q -> q.coeffs.(k) > 0) ineqs in
  let neg = List.filter (fun q -> q.coeffs.(k) < 0) ineqs in
  let rest = List.filter (fun q -> q.coeffs.(k) = 0) ineqs in
  let combined =
    List.concat_map
      (fun p ->
        List.map
          (fun m ->
            let a = p.coeffs.(k) and b = -m.coeffs.(k) in
            (* b*p + a*m eliminates y_k; both multipliers positive. *)
            {
              coeffs =
                Array.init (Array.length p.coeffs) (fun j ->
                    (b * p.coeffs.(j)) + (a * m.coeffs.(j)));
              base =
                Expr.add
                  (Expr.mul (Expr.int b) p.base)
                  (Expr.mul (Expr.int a) m.base);
            })
          neg)
      pos
  in
  dedupe (rest @ combined)

let bounds (sys : system) =
  let n = Array.length sys.vars in
  let result = Array.make n (Expr.zero, Expr.zero) in
  let ineqs = ref (dedupe sys.ineqs) in
  for k = n - 1 downto 0 do
    let here = List.filter (fun q -> level q = k) !ineqs in
    let lowers =
      List.filter_map
        (fun q ->
          let a = q.coeffs.(k) in
          if a > 0 then
            (* a*y_k >= -(rest)  =>  y_k >= ceil(-(rest)/a) *)
            Some (Expr.ceil_div (Expr.neg (rest_expr sys.vars q k)) a)
          else None)
        here
    in
    let uppers =
      List.filter_map
        (fun q ->
          let a = q.coeffs.(k) in
          if a < 0 then
            (* -a*y_k <= rest  =>  y_k <= floor(rest/(-a)) *)
            Some (Expr.floor_div (rest_expr sys.vars q k) (-a))
          else None)
        here
    in
    if lowers = [] then raise (Unbounded (sys.vars.(k) ^ " (no lower bound)"));
    if uppers = [] then raise (Unbounded (sys.vars.(k) ^ " (no upper bound)"));
    result.(k) <- (Expr.max_list lowers, Expr.min_list uppers);
    ineqs := eliminate_pairs !ineqs k
  done;
  result

let nest_system (nest : Nest.t) =
  let loops = Array.of_list nest.Nest.loops in
  let n = Array.length loops in
  let vars = Array.map (fun l -> l.Nest.var) loops in
  let all_vars = Array.to_list vars in
  let term_ineq ~lower k (e : Expr.t) =
    (* A floor division by a positive constant is exact over integers:
       x <= e div c  <=>  c*x <= e;   x >= e div c  <=>  c*x >= e - c + 1.
       This keeps step-normalized bounds (which contain such divisions)
       inside the linear system. *)
    let scale, e, slack =
      match e with
      | Expr.Div (e', Expr.Int c) when c > 0 ->
        (c, e', if lower then c - 1 else 0)
      | _ -> (1, e, 0)
    in
    let s = Affine.split ~vars:all_vars e in
    if not (Affine.is_affine s) then
      invalid_arg "Fourier.nest_system: non-affine bound";
    let coeffs = Array.make n 0 in
    List.iter
      (fun (v, c) ->
        let j = ref (-1) in
        Array.iteri (fun idx v' -> if v = v' then j := idx) vars;
        coeffs.(!j) <- (if lower then -c else c))
      s.Affine.coeffs;
    (* lower: scale*x_k - e + slack >= 0 ; upper: e - scale*x_k >= 0 *)
    coeffs.(k) <- coeffs.(k) + (if lower then scale else -scale);
    {
      coeffs;
      base =
        (if lower then Expr.add (Expr.neg s.Affine.base) (Expr.int slack)
         else s.Affine.base);
    }
  in
  let ineqs =
    List.concat
      (List.init n (fun k ->
           let l = loops.(k) in
           let lower_terms = Classify.bound_terms Classify.Lower ~step_sign:1 l.Nest.lo in
           let upper_terms = Classify.bound_terms Classify.Upper ~step_sign:1 l.Nest.hi in
           List.map (term_ineq ~lower:true k) lower_terms
           @ List.map (term_ineq ~lower:false k) upper_terms))
  in
  { vars; ineqs }

(* [definitely_infeasible] works on integer rows
   [| var coeffs; invariant-column coeffs; constant |], each meaning
   [row . (y, invariants, 1) >= 0]. An invariant column stands for one
   symbol or one non-affine subterm of the bases. *)

exception Contradiction

(* Columns of a base: its literal constant and the integer multiple of
   each symbol or opaque subterm, the latter numbered by [column]. *)
let linearize column (e : Expr.t) =
  let const = ref 0 and terms = ref [] in
  let rec walk k (e : Expr.t) =
    match e with
    | Int c -> const := !const + (k * c)
    | Add (a, b) -> walk k a; walk k b
    | Sub (a, b) -> walk k a; walk (-k) b
    | Neg a -> walk (-k) a
    | Mul (Int c, a) | Mul (a, Int c) -> walk (k * c) a
    | e -> terms := (column e, k) :: !terms
  in
  walk 1 e;
  (!const, !terms)

(* Divide a row by the gcd of its variable and invariant coefficients.
   With no invariant part the constant is rounded down (integer
   tightening); otherwise the row is only scaled when the gcd divides the
   constant too. Returns [None] for a trivially true row.
   @raise Contradiction on a ground row with a negative constant. *)
let normalize_row nv (r : int array) =
  let w = Array.length r - 1 in
  let g = ref 0 and symbolic = ref false in
  for j = 0 to w - 1 do
    if r.(j) <> 0 then begin
      g := Intmat.gcd !g r.(j);
      if j >= nv then symbolic := true
    end
  done;
  let g = if !symbolic then Intmat.gcd !g r.(w) else !g in
  if g = 0 then if r.(w) < 0 then raise Contradiction else None
  else if g = 1 then Some r
  else begin
    for j = 0 to w - 1 do r.(j) <- r.(j) / g done;
    r.(w) <- Expr.fdiv r.(w) g;
    Some r
  end

(* Rows ordered by coefficients, then constant: the first row of a run
   with equal coefficients has the tightest constant. *)
let compare_row (a : int array) (b : int array) =
  let w = Array.length a - 1 in
  let rec go j =
    if j > w then 0
    else
      let c = Int.compare a.(j) b.(j) in
      if c <> 0 then c else go (j + 1)
  in
  go 0

let same_coeffs (a : int array) (b : int array) =
  let rec go j = j < 0 || (a.(j) = b.(j) && go (j - 1)) in
  go (Array.length a - 2)

let dedupe_rows rows =
  let rec keep_tightest = function
    | a :: b :: rest when same_coeffs a b -> keep_tightest (a :: rest)
    | a :: rest -> a :: keep_tightest rest
    | [] -> []
  in
  keep_tightest (List.sort compare_row rows)

let definitely_infeasible ?(max_ineqs = 400) (sys : system) =
  let nv = Array.length sys.vars in
  let columns = ref [] and ncolumns = ref 0 in
  let column e =
    match List.find_opt (fun (e', _) -> Expr.equal e e') !columns with
    | Some (_, j) -> j
    | None ->
      let j = !ncolumns in
      columns := (e, j) :: !columns;
      incr ncolumns;
      j
  in
  let split = List.map (fun q -> (q.coeffs, linearize column q.base)) sys.ineqs in
  let w = nv + !ncolumns in
  let row (coeffs, (const, terms)) =
    let r = Array.make (w + 1) 0 in
    Array.blit coeffs 0 r 0 nv;
    List.iter (fun (j, k) -> r.(nv + j) <- r.(nv + j) + k) terms;
    r.(w) <- const;
    normalize_row nv r
  in
  let eliminate rows k =
    let pos = List.filter (fun r -> r.(k) > 0) rows in
    let neg = List.filter (fun r -> r.(k) < 0) rows in
    let rest = List.filter (fun r -> r.(k) = 0) rows in
    if List.length rest + (List.length pos * List.length neg) > max_ineqs then None
    else
      let combine p m =
        (* b*p + a*m eliminates y_k; both multipliers positive. *)
        let a = p.(k) and b = -m.(k) in
        normalize_row nv (Array.init (w + 1) (fun j -> (b * p.(j)) + (a * m.(j))))
      in
      let combined = List.concat_map (fun p -> List.filter_map (combine p) neg) pos in
      Some (dedupe_rows (rest @ combined))
  in
  let rec go k rows =
    k < nv && match eliminate rows k with Some rows -> go (k + 1) rows | None -> false
  in
  try go 0 (dedupe_rows (List.filter_map row split)) with Contradiction -> true

let substitute (sys : system) (minv : Intmat.t) (new_vars : string array) =
  let n = Array.length sys.vars in
  if Intmat.rows minv <> n || Intmat.cols minv <> n then
    invalid_arg "Fourier.substitute: dimension mismatch";
  let ineqs =
    List.map
      (fun q ->
        (* sum_k c_k x_k = sum_k c_k (sum_j minv[k][j] y_j)
                         = sum_j (sum_k c_k minv[k][j]) y_j *)
        let coeffs =
          Array.init n (fun j ->
              let acc = ref 0 in
              for k = 0 to n - 1 do
                acc := !acc + (q.coeffs.(k) * Intmat.get minv k j)
              done;
              !acc)
        in
        { coeffs; base = q.base })
      sys.ineqs
  in
  { vars = new_vars; ineqs }
