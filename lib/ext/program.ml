open Itf_ir

type t = Nest.t list

let pp ppf (p : t) =
  List.iteri
    (fun k nest ->
      if k > 0 then Format.pp_print_cut ppf ();
      Format.fprintf ppf "%a" Nest.pp nest)
    p

let pp ppf p = Format.fprintf ppf "@[<v>%a@]" pp p
