type row = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  min_s : float;
  max_s : float;
}

type rec_span = {
  r_name : string;
  r_dur : float;
  r_parent : int option;
  r_attrs : (string * Json.t) list;
  mutable r_child_dur : float;
}

let parse_lines lines =
  let spans = Hashtbl.create 64 in
  let order = ref [] in
  let err = ref None in
  List.iteri
    (fun k line ->
      if !err = None && String.trim line <> "" then
        let fail msg = err := Some (Printf.sprintf "line %d: %s" (k + 1) msg) in
        match Json.of_string line with
        | Error m -> fail m
        | Ok j -> (
          let id = Option.bind (Json.member "id" j) Json.to_int in
          let name = Option.bind (Json.member "name" j) Json.to_str in
          let dur = Option.bind (Json.member "dur_s" j) Json.to_float in
          let parent =
            match Json.member "parent" j with
            | Some (Json.Int p) -> Some (Some p)
            | Some Json.Null | None -> Some None
            | Some _ -> None
          in
          let attrs =
            match Json.member "attrs" j with
            | Some (Json.Obj kvs) -> kvs
            | _ -> []
          in
          match (id, name, dur, parent) with
          | Some id, Some name, Some dur, Some parent ->
            let s =
              {
                r_name = name;
                r_dur = dur;
                r_parent = parent;
                r_attrs = attrs;
                r_child_dur = 0.;
              }
            in
            Hashtbl.replace spans id s;
            order := s :: !order
          | _ -> fail "span record missing id/name/dur_s/parent"))
    lines;
  match !err with
  | Some e -> Error e
  | None -> Ok (spans, List.rev !order)

let aggregate observations =
  let agg = Hashtbl.create 16 in
  List.iter
    (fun (name, dur, child_dur) ->
      let row =
        match Hashtbl.find_opt agg name with
        | Some r -> r
        | None ->
          {
            name;
            count = 0;
            total_s = 0.;
            self_s = 0.;
            min_s = infinity;
            max_s = neg_infinity;
          }
      in
      Hashtbl.replace agg name
        {
          row with
          count = row.count + 1;
          total_s = row.total_s +. dur;
          self_s = row.self_s +. Float.max 0. (dur -. child_dur);
          min_s = Float.min row.min_s dur;
          max_s = Float.max row.max_s dur;
        })
    observations;
  List.sort
    (fun a b ->
      let c = Float.compare b.total_s a.total_s in
      if c <> 0 then c else String.compare a.name b.name)
    (Hashtbl.fold (fun _ r acc -> r :: acc) agg [])

let of_lines lines =
  match parse_lines lines with
  | Error _ as e -> e
  | Ok (spans, order) ->
    List.iter
      (fun s ->
        match s.r_parent with
        | None -> ()
        | Some p -> (
          match Hashtbl.find_opt spans p with
          | Some parent -> parent.r_child_dur <- parent.r_child_dur +. s.r_dur
          | None -> ()))
      order;
    Ok
      (aggregate
         (List.map (fun s -> (s.r_name, s.r_dur, s.r_child_dur)) order))

let counters lines =
  match parse_lines lines with
  | Error e -> Error e
  | Ok (_, order) ->
    let agg = Hashtbl.create 16 in
    List.iter
      (fun s ->
        List.iter
          (fun (k, v) ->
            match v with
            | Json.Int n ->
              let key = s.r_name ^ "." ^ k in
              Hashtbl.replace agg key
                (n + Option.value ~default:0 (Hashtbl.find_opt agg key))
            | _ -> ())
          s.r_attrs)
      order;
    Ok
      (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []))

let pp ppf rows =
  Format.fprintf ppf "%-28s %8s %12s %12s %12s %12s@." "span" "count"
    "total_s" "self_s" "min_s" "max_s";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-28s %8d %12.6f %12.6f %12.6f %12.6f@." r.name
        r.count r.total_s r.self_s r.min_s r.max_s)
    rows

let pp_metrics_file ppf doc =
  match Option.bind (Json.member "metrics" doc) Json.to_list with
  | None -> Format.fprintf ppf "(not a metrics dump)@."
  | Some ms ->
    List.iter
      (fun m ->
        let name =
          Option.value ~default:"?"
            (Option.bind (Json.member "name" m) Json.to_str)
        in
        let labels =
          match Json.member "labels" m with
          | Some (Json.Obj []) | None -> ""
          | Some (Json.Obj kvs) ->
            "{"
            ^ String.concat ","
                (List.map
                   (fun (k, v) ->
                     k ^ "=" ^ Option.value ~default:"?" (Json.to_str v))
                   kvs)
            ^ "}"
          | Some _ -> ""
        in
        match Option.bind (Json.member "type" m) Json.to_str with
        | Some "counter" ->
          Format.fprintf ppf "%s%s %d@." name labels
            (Option.value ~default:0
               (Option.bind (Json.member "value" m) Json.to_int))
        | Some "gauge" ->
          Format.fprintf ppf "%s%s %g@." name labels
            (Option.value ~default:0.
               (Option.bind (Json.member "value" m) Json.to_float))
        | Some "histogram" ->
          let counts =
            match Option.bind (Json.member "counts" m) Json.to_list with
            | Some cs ->
              Some
                (Array.of_list
                   (List.map
                      (fun c -> Option.value ~default:0 (Json.to_int c))
                      cs))
            | None -> None
          in
          let buckets =
            match Option.bind (Json.member "buckets" m) Json.to_list with
            | Some bs ->
              Some
                (Array.of_list
                   (List.map
                      (fun b -> Option.value ~default:0. (Json.to_float b))
                      bs))
            | None -> None
          in
          let total =
            match counts with
            | Some cs -> Array.fold_left ( + ) 0 cs
            | None -> 0
          in
          (* [sum] is absent from pre-quantile dumps: render "-" rather
             than a fake zero, but quantiles need only the counts, so old
             files still get them. *)
          let sum = Option.bind (Json.member "sum" m) Json.to_float in
          let fmt_opt = function
            | Some x -> Printf.sprintf "%g" x
            | None -> "-"
          in
          let q p =
            match (buckets, counts) with
            | Some buckets, Some counts ->
              Metrics.quantile_of_counts ~buckets ~counts p
            | _ -> None
          in
          if total = 0 then Format.fprintf ppf "%s%s count=0@." name labels
          else
            Format.fprintf ppf
              "%s%s count=%d sum=%s mean=%s p50=%s p90=%s p99=%s@." name
              labels total (fmt_opt sum)
              (fmt_opt
                 (Option.map (fun s -> s /. float_of_int total) sum))
              (fmt_opt (q 0.5))
              (fmt_opt (q 0.9))
              (fmt_opt (q 0.99))
        | _ -> Format.fprintf ppf "%s%s ?@." name labels)
      ms
