(* Lists the values that [lib/]'s interfaces export and that no program
   refers to: no module of [lib/] other than the value's own, nothing in
   [bin/] and nothing in [bench/] (the end-to-end benchmark included).
   Tests are not callers.

   It reads the typed trees dune writes with every build ([.cmti] for the
   exports, [.cmt] for the callers); [dune build @check] makes them all.
   Run it from the repository root or from [_build/default]; it takes no
   arguments and prints one [Library.Module.value] per line, sorted.

   A reference is counted through module aliases ([module F =
   Itf_core.Framework], [let module], functor applications) and opens,
   which the type checker has already resolved. A module used whole (a
   functor argument, [include], a first-class module) uses every value
   it exports. *)

open Typedtree

let root = if Sys.file_exists "_build/default" then "_build/default" else "."

let rec files dir acc =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then files p acc else p :: acc)
    acc
    (try Sys.readdir dir with Sys_error _ -> [||])

(* A compilation unit's name as a module path: dune's [Itf_core__Framework]
   is [Itf_core.Framework]. *)
let unit_path name =
  let rec split i =
    if i < 1 then [ name ]
    else if String.sub name i 2 = "__" then
      [ String.sub name 0 i; String.sub name (i + 2) (String.length name - i - 2) ]
    else split (i - 1)
  in
  split (String.length name - 2)

let rec is_prefix p q =
  match (p, q) with
  | [], _ -> true
  | x :: p, y :: q -> x = y && is_prefix p q
  | _, [] -> false

(* Exports: every [val] of an interface, with the modules nested in it
   (functor results included); module types declare no values. *)
let rec sig_values prefix acc s =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd -> (prefix @ [ vd.val_name.txt ]) :: acc
      | Tsig_module { md_name = { txt = Some n; _ }; md_type; _ } ->
          mty_values (prefix @ [ n ]) acc md_type
      | _ -> acc)
    acc s.sig_items

and mty_values prefix acc mty =
  match mty.mty_desc with
  | Tmty_signature s -> sig_values prefix acc s
  | Tmty_functor (_, r) -> mty_values prefix acc r
  | _ -> acc

let rec alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) | Tmod_apply (me, _, _) -> alias_target me
  | _ -> None

(* Calls [use path] for every value path and [whole path] for every module
   used whole in [str]. *)
let scan ~use ~whole str =
  let aliases = Hashtbl.create 16 in
  let rec flat = function
    | Path.Pident id -> (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some p -> p
        | None -> unit_path (Ident.name id))
    | Path.Pdot (p, s) -> flat p @ [ s ]
    | Path.Papply (f, _) | Path.Pextra_ty (f, _) -> flat f
  in
  let alias id me =
    match (id, alias_target me) with
    | Some id, Some p -> Hashtbl.replace aliases (Ident.unique_name id) (flat p)
    | _ -> ()
  in
  let rec is_ident me =
    match me.mod_desc with
    | Tmod_ident _ -> true
    | Tmod_constraint (me, _, _, _) -> is_ident me
    | _ -> false
  in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> use (flat p)
          | Texp_letmodule (id, _, _, me, body) ->
              alias id me;
              if not (is_ident me) then sub.module_expr sub me;
              sub.expr sub body
          | _ -> default_iterator.expr sub e);
      binding_op =
        (fun sub bop ->
          use (flat bop.bop_op_path);
          default_iterator.binding_op sub bop);
      module_binding =
        (fun sub mb ->
          alias mb.mb_id mb.mb_expr;
          if not (is_ident mb.mb_expr) then sub.module_expr sub mb.mb_expr);
      module_expr =
        (fun sub me ->
          match me.mod_desc with
          | Tmod_ident (p, _) -> whole (flat p)
          | Tmod_apply (f, arg, _) when is_ident f -> sub.module_expr sub arg
          | _ -> default_iterator.module_expr sub me);
      (* An open only names a scope: the type checker already resolved
         every value read through it. *)
      open_declaration = (fun _ _ -> ());
      module_type =
        (fun sub mty ->
          match mty.mty_desc with
          | Tmty_typeof _ -> ()
          | _ -> default_iterator.module_type sub mty);
    }
  in
  it.structure it str

let () =
  let lib = files (Filename.concat root "lib") [] in
  let callers =
    lib @ files (Filename.concat root "bin") [] @ files (Filename.concat root "bench") []
  in
  let exports = Hashtbl.create 512 in
  List.iter
    (fun f ->
      if Filename.check_suffix f ".cmti" then
        let cmt = Cmt_format.read_cmt f in
        match cmt.cmt_annots with
        | Interface s ->
            List.iter
              (fun v -> Hashtbl.replace exports v false)
              (sig_values (unit_path cmt.cmt_modname) [] s)
        | _ -> ())
    lib;
  List.iter
    (fun f ->
      if Filename.check_suffix f ".cmt" then
        let cmt = Cmt_format.read_cmt f in
        let self = unit_path cmt.cmt_modname in
        let mark p =
          Hashtbl.filter_map_inplace
            (fun v used -> Some (used || (p v && not (is_prefix self v))))
            exports
        in
        match cmt.cmt_annots with
        | Implementation str ->
            scan str
              ~use:(fun p ->
                if Hashtbl.mem exports p && not (is_prefix self p) then
                  Hashtbl.replace exports p true)
              ~whole:(fun p -> mark (fun v -> is_prefix p v && v <> p))
        | _ -> ())
    callers;
  Hashtbl.fold (fun v used acc -> if used then acc else String.concat "." v :: acc) exports []
  |> List.sort compare
  |> List.iter print_endline
