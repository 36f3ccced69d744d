type row = Report.row = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  min_s : float;
  max_s : float;
}

let by_self a b =
  let c = Float.compare b.self_s a.self_s in
  if c <> 0 then c else String.compare a.name b.name

let of_report rows = List.sort by_self rows

(* Preorder, the order [Tracer.write_jsonl] writes, so both entry points
   sum each name's spans in the same order. *)
let of_spans spans =
  let rec go acc (s : Tracer.span) =
    let child_dur =
      List.fold_left (fun acc c -> acc +. c.Tracer.dur_s) 0. s.Tracer.children
    in
    List.fold_left go ((s.Tracer.name, s.Tracer.dur_s, child_dur) :: acc)
      s.Tracer.children
  in
  of_report (Report.aggregate (List.rev (List.fold_left go [] spans)))

let of_lines lines = Result.map of_report (Report.of_lines lines)

let top n rows = List.filteri (fun k _ -> k < n) rows

let to_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("name", Json.String r.name);
             ("count", Json.Int r.count);
             ("total_us", Json.Float (r.total_s *. 1e6));
             ("self_us", Json.Float (r.self_s *. 1e6));
           ])
       rows)

let pp ppf rows =
  let grand_self =
    List.fold_left (fun acc r -> acc +. r.self_s) 0. rows
  in
  Format.fprintf ppf "%-28s %8s %12s %12s %7s@." "span" "count" "total_s"
    "self_s" "self%";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-28s %8d %12.6f %12.6f %6.1f%%@." r.name r.count
        r.total_s r.self_s
        (if grand_self > 0. then 100. *. r.self_s /. grand_self else 0.))
    rows
