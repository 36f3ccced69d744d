open Itf_ir

type reference = {
  array : string;
  write : bool;
  guarded : bool;
  pos : int;
  index : Expr.t list;
  dims : Affine.t list;
  slopes : Expr.t option list;
  carried : bool list;
}

type scalar = {
  var : string;
  value : Affine.t;
  slope : Expr.t option;
  carried : bool;
}

type t = { refs : reference list; scalars : scalar list }

(* Substitution as written: the smart constructors would fold [0 * e],
   [e - e] or [e mod 1] and drop a subterm that can raise or that reads
   a loop variable non-linearly. {!Affine.split} folds what is linear. *)
let rec subst env (e : Expr.t) : Expr.t =
  match e with
  | Int _ -> e
  | Var v -> ( match List.assoc_opt v env with Some e' -> e' | None -> e)
  | Neg a -> Neg (subst env a)
  | Add (a, b) -> Add (subst env a, subst env b)
  | Sub (a, b) -> Sub (subst env a, subst env b)
  | Mul (a, b) -> Mul (subst env a, subst env b)
  | Div (a, b) -> Div (subst env a, subst env b)
  | Mod (a, b) -> Mod (subst env a, subst env b)
  | Min (a, b) -> Min (subst env a, subst env b)
  | Max (a, b) -> Max (subst env a, subst env b)
  | Load { array; index } -> Load { array; index = List.map (subst env) index }
  | Call (f, args) -> Call (f, List.map (subst env) args)

(* [e] over the variable [x]: [Free] does not read it, [Lin c] is
   [c * x] plus a term free of it, with [c] free of it. *)
type slope = Free | Lin of Expr.t

exception Nonlinear

let rec slope x (e : Expr.t) =
  match e with
  | Int _ -> Free
  | Var v -> if v = x then Lin Expr.one else Free
  | Neg a -> ( match slope x a with Free -> Free | Lin c -> Lin (Expr.neg c))
  | Add (a, b) | Sub (a, b) -> (
    let minus = match e with Sub _ -> Expr.neg | _ -> Fun.id in
    match (slope x a, slope x b) with
    | Free, Free -> Free
    | Lin c, Free -> Lin c
    | Free, Lin c -> Lin (minus c)
    | Lin c1, Lin c2 -> Lin (Expr.add c1 (minus c2)))
  | Mul (a, b) -> (
    match (slope x a, slope x b) with
    | Free, Free -> Free
    | Free, Lin c -> Lin (Expr.mul a c)
    | Lin c, Free -> Lin (Expr.mul c b)
    | Lin _, Lin _ -> raise Nonlinear)
  | Div (a, b) | Mod (a, b) | Min (a, b) | Max (a, b) -> free x [ a; b ]
  | Load { index = args; _ } | Call (_, args) -> free x args

and free x args =
  if List.for_all (fun a -> match slope x a with Free -> true | Lin _ -> false) args
  then Free
  else raise Nonlinear

let of_nest (nest : Nest.t) =
  let stmts = nest.Nest.inits @ nest.Nest.body in
  let vars = Nest.loop_vars nest in
  let inner = match List.rev vars with x :: _ -> Some x | [] -> None in
  let targets = List.concat_map Stmt.defined_vars stmts in
  let once =
    List.filter_map Stmt.defined_var stmts
    |> List.filter (fun v ->
           List.length (List.filter (String.equal v) targets) = 1)
  in
  (* [sub]: the values of the scalars set so far; [unset]: the
     substitutable scalars not set yet; [carried]: the scalars whose
     value read one of those. *)
  let sub = ref [] and unset = ref once and carried = ref [] in
  let carries e =
    let reads v = Expr.mentions v e in
    List.exists reads !unset || List.exists reads !carried
  in
  (* The form over every loop variable and, when the innermost one is
     not read non-linearly, its coefficient. *)
  let forms ~carries e =
    let af = Affine.split ~vars e in
    if carries then
      ({ af with Affine.nonlinear_in = List.sort_uniq String.compare vars }, None)
    else
      match inner with
      | None -> (af, None)
      | Some x when not (List.mem x af.Affine.nonlinear_in) ->
        (af, Some (Expr.int (Affine.coeff af x)))
      | Some x -> (
        match slope x e with
        | Free -> (af, Some Expr.zero)
        | Lin c -> (af, Some c)
        | exception Nonlinear -> (af, None))
  in
  let refs = ref [] and scalars = ref [] and next = ref 0 in
  (* Ranks a reference in source order now and records it, in touch
     order, when the returned thunk runs. *)
  let reference ~guarded ~write array index =
    let pos = !next in
    incr next;
    fun () ->
      let dims, slopes, carried =
        List.fold_right
          (fun e (dims, slopes, carried) ->
            let c = carries e in
            let af, slope = forms ~carries:c (subst !sub e) in
            (af :: dims, slope :: slopes, c :: carried))
          index ([], [], [])
      in
      refs :=
        { array; write; guarded; pos; index; dims; slopes; carried } :: !refs
  in
  let rec expr ~guarded (e : Expr.t) =
    match e with
    | Int _ | Var _ -> ()
    | Neg a -> expr ~guarded a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
    | Min (a, b) | Max (a, b) ->
      expr ~guarded a;
      expr ~guarded b
    | Load { array; index } ->
      let record = reference ~guarded ~write:false array index in
      List.iter (expr ~guarded) index;
      record ()
    | Call (_, args) -> List.iter (expr ~guarded) args
  in
  let rec stmt ~guarded (s : Stmt.t) =
    match s with
    | Store ({ array; index }, rhs) ->
      let record = reference ~guarded ~write:true array index in
      List.iter (expr ~guarded) index;
      expr ~guarded rhs;
      record ()
    | Set (v, rhs) ->
      expr ~guarded rhs;
      if List.mem v once then begin
        let carries = carries rhs in
        let value = subst !sub rhs in
        if carries then carried := v :: !carried;
        unset := List.filter (fun u -> u <> v) !unset;
        sub := (v, value) :: !sub;
        let value, slope = forms ~carries value in
        scalars := { var = v; value; slope; carried = carries } :: !scalars
      end
    | Guard { lhs; rhs; body; _ } ->
      (* The condition always runs; only the body is conditional. *)
      expr ~guarded lhs;
      expr ~guarded rhs;
      List.iter (stmt ~guarded:true) body
  in
  List.iter (stmt ~guarded:false) stmts;
  { refs = List.rev !refs; scalars = List.rev !scalars }

(* ------------------------------------------------------------------ *)
(* Forms of a transformed nest, from its parent's                       *)
(* ------------------------------------------------------------------ *)

exception Unmapped

let innermost vars = match List.rev vars with x :: _ -> Some x | [] -> None

let has_carried a =
  List.exists (fun (r : reference) -> List.mem true r.carried) a.refs
  || List.exists (fun (s : scalar) -> s.carried) a.scalars

(* The statements are the parent's, so every subscript substitutes to the
   parent's expression: a form reads the designated variables that occur
   in it, and the loop variables the child adds do not occur. Only a
   carried form, non-linear in every loop variable, and the innermost
   slopes read the loop set itself. *)
let relabel ~inner ~vars a =
  let inner' = innermost vars in
  let carried = has_carried a in
  if inner' = inner && not carried then Some a
  else
    let every = if carried then List.sort_uniq String.compare vars else [] in
    let form (af : Affine.t) carried =
      if carried then { af with Affine.nonlinear_in = every } else af
    in
    let slope (af : Affine.t) slope carried =
      if carried then None
      else if inner' = inner then slope
      else
        match inner' with
        | None -> None
        | Some x when not (List.mem x af.Affine.nonlinear_in) ->
          Some (Expr.int (Affine.coeff af x))
        | Some _ -> raise Unmapped
    in
    let rec slopes dims ss cs =
      match (dims, ss, cs) with
      | af :: dims, s :: ss, c :: cs -> slope af s c :: slopes dims ss cs
      | _ -> []
    in
    match
      ( List.map
          (fun (r : reference) ->
            {
              r with
              dims =
                (if List.mem true r.carried then List.map2 form r.dims r.carried
                 else r.dims);
              slopes = slopes r.dims r.slopes r.carried;
            })
          a.refs,
        List.map
          (fun (s : scalar) ->
            {
              s with
              value = form s.value s.carried;
              slope = slope s.value s.slope s.carried;
            })
          a.scalars )
    with
    | refs, scalars -> Some { refs; scalars }
    | exception Unmapped -> None

(* {!Affine.split} is a fold over the substituted expression in which a
   designated variable contributes [{coeffs = [x, 1]; base = 0}]. In the
   child each old variable [x] is replaced by its definition, whose split
   is [{coeffs = d_x; base = 0}], so every node of the fold has the same
   base and its coefficients composed with [d]: the same fold, as long
   as no node is non-linear (the form is affine) and no base holds an
   old variable verbatim (a product of invariants such as
   [(x - x + n) * m] keeps its expression as its base). *)
let substitute ~vars ~defs a =
  let inner = innermost vars in
  let ys = Array.of_list vars in
  let ny = Array.length ys in
  (* The child's variables in name order: the order of a form's
     coefficients. *)
  let by_name =
    Array.of_list
      (List.sort
         (fun i j -> String.compare ys.(i) ys.(j))
         (List.init ny Fun.id))
  in
  let position y =
    let rec go k =
      if k = ny then raise Unmapped else if String.equal ys.(k) y then k
      else go (k + 1)
    in
    go 0
  in
  let slope (af : Affine.t) =
    Option.map (fun x -> Expr.int (Affine.coeff af x)) inner
  in
  let xs = List.map fst defs in
  let rec row x = function
    | [] -> raise Unmapped
    | (x', r) :: rows -> if String.equal x x' then r else row x rows
  in
  let compose rows (af : Affine.t) =
    if
      af.Affine.nonlinear_in <> []
      || Expr.fold_vars (fun r x -> r || List.mem x xs) false af.Affine.base
    then raise Unmapped;
    let acc = Array.make ny 0 in
    List.iter
      (fun (x, c) ->
        let r = row x rows in
        for k = 0 to ny - 1 do
          acc.(k) <- acc.(k) + (c * r.(k))
        done)
      af.Affine.coeffs;
    let coeffs =
      Array.fold_right
        (fun k l -> if acc.(k) = 0 then l else (ys.(k), acc.(k)) :: l)
        by_name []
    in
    { af with Affine.coeffs }
  in
  match
    let split =
      List.map
        (fun (x, rhs) ->
          let d = Affine.split ~vars rhs in
          if d.Affine.base <> Expr.zero || d.Affine.nonlinear_in <> [] then
            raise Unmapped;
          (x, d))
        defs
    in
    let rows =
      List.map
        (fun (x, (d : Affine.t)) ->
          let row = Array.make ny 0 in
          List.iter (fun (y, c) -> row.(position y) <- c) d.Affine.coeffs;
          (x, row))
        split
    in
    ( split,
      List.map
        (fun (r : reference) ->
          let dims = List.map (compose rows) r.dims in
          { r with dims; slopes = List.map slope dims })
        a.refs,
      List.map
        (fun (s : scalar) ->
          let value = compose rows s.value in
          { s with value; slope = slope value })
        a.scalars )
  with
  | split, refs, scalars ->
    let defined =
      List.map
        (fun (x, value) ->
          { var = x; value; slope = slope value; carried = false })
        split
    in
    Some { refs; scalars = defined @ scalars }
  | exception Unmapped -> None
