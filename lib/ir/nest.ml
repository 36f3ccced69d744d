type kind = Do | Pardo

type loop = {
  var : string;
  lo : Expr.t;
  hi : Expr.t;
  step : Expr.t;
  kind : kind;
}

type t = { loops : loop list; inits : Stmt.t list; body : Stmt.t list }

let make ?(inits = []) loops body =
  if loops = [] then invalid_arg "Nest.make: empty nest";
  let vars = List.map (fun l -> l.var) loops in
  if List.length (List.sort_uniq String.compare vars) <> List.length vars then
    invalid_arg "Nest.make: duplicate loop variables";
  { loops; inits; body }

let loop ?(kind = Do) ?(step = Expr.one) var lo hi = { var; lo; hi; step; kind }

let depth t = List.length t.loops

let loop_vars t = List.map (fun l -> l.var) t.loops

let all_vars t =
  let bound_vars l =
    List.concat_map Expr.free_vars [ l.lo; l.hi; l.step ]
  in
  let stmt_vars s =
    Stmt.free_vars s @ (match Stmt.defined_var s with Some v -> [ v ] | None -> [])
  in
  List.sort_uniq String.compare
    (loop_vars t
    @ List.concat_map bound_vars t.loops
    @ List.concat_map stmt_vars t.inits
    @ List.concat_map stmt_vars t.body)

let fresh_var t base =
  let used = all_vars t in
  if not (List.mem base used) then base
  else
    let rec go k =
      let cand = Printf.sprintf "%s%d" base k in
      if List.mem cand used then go (k + 1) else cand
    in
    go 2

let symbolic_params t =
  let defined =
    loop_vars t
    @ List.filter_map Stmt.defined_var t.inits
    @ List.filter_map Stmt.defined_var t.body
  in
  let read =
    List.concat_map (fun l -> List.concat_map Expr.free_vars [ l.lo; l.hi; l.step ]) t.loops
    @ List.concat_map Stmt.free_vars t.inits
    @ List.concat_map Stmt.free_vars t.body
  in
  List.sort_uniq String.compare
    (List.filter (fun v -> not (List.mem v defined)) read)

let arrays_read t =
  List.sort_uniq String.compare
    (List.concat_map Stmt.arrays_read (t.inits @ t.body))

let arrays_written t =
  List.sort_uniq String.compare
    (List.concat_map Stmt.arrays_written (t.inits @ t.body))

(* Last occurrence wins, in walk order: a store's array, then its
   subscripts, then its right-hand side. *)
let array_arities t =
  let tbl = Hashtbl.create 8 in
  let note (a : Expr.access) = Hashtbl.replace tbl a.array (List.length a.index) in
  let rec expr (e : Expr.t) =
    match e with
    | Int _ | Var _ -> ()
    | Neg a -> expr a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
    | Min (a, b) | Max (a, b) ->
      expr a;
      expr b
    | Load a ->
      note a;
      List.iter expr a.index
    | Call (_, args) -> List.iter expr args
  in
  let rec stmt : Stmt.t -> unit = function
    | Store (a, rhs) ->
      note a;
      List.iter expr a.index;
      expr rhs
    | Set (_, rhs) -> expr rhs
    | Guard { lhs; rhs; body; _ } ->
      expr lhs;
      expr rhs;
      List.iter stmt body
  in
  List.iter stmt (t.inits @ t.body);
  Hashtbl.fold (fun a k acc -> (a, k) :: acc) tbl [] |> List.sort compare

let equal (a : t) (b : t) = a = b

(* Structural nest hash: every loop header (variable, bounds, step, kind)
   and every statement contributes. Compatible with [equal]; used by the
   search engine to memoize per-nest computations. *)
let hash (t : t) =
  let hash_loop h l =
    List.fold_left Expr.hash_combine h
      [
        Hashtbl.hash l.var;
        Expr.hash l.lo;
        Expr.hash l.hi;
        Expr.hash l.step;
        (match l.kind with Do -> 17 | Pardo -> 23);
      ]
  in
  let hash_stmts h ss =
    List.fold_left (fun h s -> Expr.hash_combine h (Stmt.hash s)) h ss
  in
  hash_stmts (hash_stmts (List.fold_left hash_loop 5381 t.loops) t.inits) t.body

let pp ppf t =
  let indent k = String.make (2 * k) ' ' in
  let n = depth t in
  List.iteri
    (fun k l ->
      let kw = match l.kind with Do -> "do" | Pardo -> "pardo" in
      match Expr.to_int l.step with
      | Some 1 ->
        Format.fprintf ppf "%s%s %s = %a, %a@," (indent k) kw l.var Expr.pp
          l.lo Expr.pp l.hi
      | _ ->
        Format.fprintf ppf "%s%s %s = %a, %a, %a@," (indent k) kw l.var
          Expr.pp l.lo Expr.pp l.hi Expr.pp l.step)
    t.loops;
  List.iter
    (fun s -> Format.fprintf ppf "%s%a@," (indent n) Stmt.pp s)
    (t.inits @ t.body);
  List.iteri
    (fun k _ -> Format.fprintf ppf "%senddo@," (indent (n - 1 - k)))
    t.loops

let pp ppf t = Format.fprintf ppf "@[<v>%a@]" pp t

let to_string t = Format.asprintf "%a" pp t
