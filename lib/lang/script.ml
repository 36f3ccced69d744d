module Template = Itf_core.Template

exception Error of { line : int; message : string }

let fail line fmt = Format.kasprintf (fun message -> raise (Error { line; message })) fmt

let split_words s =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s)
  |> List.filter (fun w -> w <> "")

let strip_comment s =
  match String.index_opt s '#' with
  | Some k -> String.sub s 0 k
  | None -> s

let int_arg line w =
  match int_of_string_opt w with
  | Some n -> n
  | None -> fail line "expected an integer, found %S" w

let expr_arg line w =
  match int_of_string_opt w with
  | Some n -> Itf_ir.Expr.int n
  | None -> (
    try Parser.parse_expr w
    with Parser.Error { message; _ } -> fail line "bad size expression %S: %s" w message)

let command ~n line words =
  match words with
  | [ "interchange"; a; b ] ->
    Template.interchange ~n (int_arg line a) (int_arg line b)
  | [ "reversal"; k ] -> Template.reversal ~n (int_arg line k)
  | "permute" :: ps ->
    let perm = Array.of_list (List.map (int_arg line) ps) in
    if Array.length perm <> n then
      fail line "permute needs %d positions, got %d" n (Array.length perm);
    Template.reverse_permute ~rev:(Array.make n false) ~perm
  | "revperm" :: args ->
    (* General Reverse_permute: n reversal flags (0/1) then n positions. *)
    let args = Array.of_list (List.map (int_arg line) args) in
    if Array.length args <> 2 * n then
      fail line "revperm needs %d flags + %d positions, got %d entries" n n
        (Array.length args);
    let rev = Array.init n (fun k -> args.(k) <> 0) in
    let perm = Array.init n (fun k -> args.(n + k)) in
    Template.reverse_permute ~rev ~perm
  | [ "skew"; src; dst; factor ] ->
    Template.skew ~n ~src:(int_arg line src) ~dst:(int_arg line dst)
      ~factor:(int_arg line factor)
  | "unimodular" :: entries ->
    let es = List.map (int_arg line) entries in
    if List.length es <> n * n then
      fail line "unimodular needs %d entries for a %d-deep nest" (n * n) n;
    let a = Array.of_list es in
    Template.unimodular (Itf_mat.Intmat.make n n (fun i j -> a.((i * n) + j)))
  | "parallelize" :: ks when ks <> [] ->
    let flags = Array.make n false in
    List.iter
      (fun k ->
        let k = int_arg line k in
        if k < 0 || k >= n then fail line "parallelize: loop %d out of range" k;
        flags.(k) <- true)
      ks;
    Template.parallelize flags
  | "block" :: i :: j :: sizes ->
    let i = int_arg line i and j = int_arg line j in
    if List.length sizes <> j - i + 1 then
      fail line "block %d %d needs %d sizes" i j (j - i + 1);
    Template.block ~n ~i ~j ~bsize:(Array.of_list (List.map (expr_arg line) sizes))
  | [ "coalesce"; i; j ] ->
    Template.coalesce ~n ~i:(int_arg line i) ~j:(int_arg line j)
  | "interleave" :: i :: j :: sizes ->
    let i = int_arg line i and j = int_arg line j in
    if List.length sizes <> j - i + 1 then
      fail line "interleave %d %d needs %d sizes" i j (j - i + 1);
    Template.interleave ~n ~i ~j
      ~isize:(Array.of_list (List.map (expr_arg line) sizes))
  | cmd :: _ -> fail line "unknown or malformed command %S" cmd
  | [] -> assert false

let parse ~depth src =
  let lines = String.split_on_char '\n' src in
  let _, rev_seq =
    List.fold_left
      (fun (lineno, (n, acc)) raw ->
        let words = split_words (strip_comment raw) in
        if words = [] then (lineno + 1, (n, acc))
        else
          let t =
            try command ~n lineno words
            with Invalid_argument message -> raise (Error { line = lineno; message })
          in
          (lineno + 1, (Template.output_depth t, t :: acc)))
      (1, (depth, []))
      lines
    |> fun (lineno, (n, acc)) -> ((lineno, n), acc)
  in
  List.rev rev_seq

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(* Inverse of [parse]: a textual script that reparses to the same
   sequence. Every template has an exact spelling ([revperm] carries both
   the reversal mask and the permutation), so reproducers round-trip. *)
let of_template (t : Template.t) =
  let ints xs = String.concat " " (List.map string_of_int xs) in
  match t with
  | Template.Unimodular { n; m; _ } ->
    "unimodular "
    ^ ints
        (List.concat_map Fun.id
           (List.init n (fun i ->
                List.init n (fun j -> Itf_mat.Intmat.get m i j))))
  | Template.Reverse_permute { n; rev; perm } ->
    if Array.exists Fun.id rev then
      "revperm "
      ^ ints
          (List.init n (fun k -> if rev.(k) then 1 else 0)
          @ Array.to_list perm)
    else "permute " ^ ints (Array.to_list perm)
  | Template.Parallelize { n; parflag } ->
    let ks =
      List.filter (fun k -> parflag.(k)) (List.init n Fun.id)
    in
    if ks = [] then
      invalid_arg "Script.of_template: identity parallelize has no spelling"
    else "parallelize " ^ ints ks
  | Template.Block { i; j; bsize; _ } ->
    Printf.sprintf "block %d %d %s" i j
      (String.concat " "
         (List.map Itf_ir.Expr.to_string (Array.to_list bsize)))
  | Template.Coalesce { i; j; _ } -> Printf.sprintf "coalesce %d %d" i j
  | Template.Interleave { i; j; isize; _ } ->
    Printf.sprintf "interleave %d %d %s" i j
      (String.concat " "
         (List.map Itf_ir.Expr.to_string (Array.to_list isize)))

let of_sequence seq = String.concat "\n" (List.map of_template seq)
