open Itf_ir

type reference = {
  array : string;
  write : bool;
  guarded : bool;
  pos : int;
  index : Expr.t list;
  dims : Affine.t list;
  slopes : Expr.t option list;
}

type scalar = { var : string; value : Affine.t; slope : Expr.t option }

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
      let dims, slopes =
        List.split
          (List.map (fun e -> forms ~carries:(carries e) (subst !sub e)) index)
      in
      refs := { array; write; guarded; pos; index; dims; slopes } :: !refs
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
        scalars := { var = v; value; slope } :: !scalars
      end
    | Guard { lhs; rhs; body; _ } ->
      (* The condition always runs; only the body is conditional. *)
      expr ~guarded lhs;
      expr ~guarded rhs;
      List.iter (stmt ~guarded:true) body
  in
  List.iter (stmt ~guarded:false) stmts;
  { refs = List.rev !refs; scalars = List.rev !scalars }
