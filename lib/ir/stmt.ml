type rel = Lt | Le | Gt | Ge | Eq | Ne

type t =
  | Store of Expr.access * Expr.t
  | Set of string * Expr.t
  | Guard of guard

and guard = { lhs : Expr.t; rel : rel; rhs : Expr.t; body : t list }

let holds rel a b =
  match rel with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b

let rel_tag = function Lt -> 0 | Le -> 1 | Gt -> 2 | Ge -> 3 | Eq -> 4 | Ne -> 5

let rec hash = function
  | Store ({ array; index }, rhs) ->
    List.fold_left
      (fun h e -> Expr.hash_combine h (Expr.hash e))
      (Expr.hash_combine 1 (Hashtbl.hash array))
      (index @ [ rhs ])
  | Set (x, rhs) ->
    Expr.hash_combine (Expr.hash_combine 2 (Hashtbl.hash x)) (Expr.hash rhs)
  | Guard { lhs; rel; rhs; body } ->
    List.fold_left
      (fun h s -> Expr.hash_combine h (hash s))
      (Expr.hash_combine
         (Expr.hash_combine
            (Expr.hash_combine 3 (rel_tag rel))
            (Expr.hash lhs))
         (Expr.hash rhs))
      body

let rec free_vars = function
  | Store ({ index; _ }, rhs) ->
    List.sort_uniq String.compare
      (List.concat_map Expr.free_vars (rhs :: index))
  | Set (_, rhs) -> Expr.free_vars rhs
  | Guard { lhs; rel = _; rhs; body } ->
    List.sort_uniq String.compare
      (Expr.free_vars lhs @ Expr.free_vars rhs
      @ List.concat_map free_vars body)

let defined_var = function
  | Set (x, _) -> Some x
  | Store _ | Guard _ -> None

let rec defined_vars = function
  | Set (x, _) -> [ x ]
  | Store _ -> []
  | Guard { body; _ } -> List.concat_map defined_vars body

let rec arrays_read = function
  | Store ({ index; _ }, rhs) ->
    List.sort_uniq String.compare (List.concat_map Expr.arrays (rhs :: index))
  | Set (_, rhs) -> Expr.arrays rhs
  | Guard { lhs; rhs; body; _ } ->
    List.sort_uniq String.compare
      (Expr.arrays lhs @ Expr.arrays rhs @ List.concat_map arrays_read body)

let rec arrays_written = function
  | Store ({ array; _ }, _) -> [ array ]
  | Set _ -> []
  | Guard { body; _ } ->
    List.sort_uniq String.compare (List.concat_map arrays_written body)

let pp_rel ppf rel =
  Format.pp_print_string ppf
    (match rel with
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">="
    | Eq -> "=="
    | Ne -> "!=")

let rec pp ppf = function
  | Store (a, rhs) -> Format.fprintf ppf "%a = %a" Expr.pp_access a Expr.pp rhs
  | Set (x, rhs) -> Format.fprintf ppf "%s = %a" x Expr.pp rhs
  | Guard { lhs; rel; rhs; body } ->
    Format.fprintf ppf "@[<v>if %a %a %a@,%a@,endif@]" Expr.pp lhs pp_rel rel
      Expr.pp rhs
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf s ->
           Format.fprintf ppf "  %a" pp s))
      body
