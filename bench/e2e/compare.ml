(* [--compare A.json B.json]: B's runs against A's, per workload.

   For every workload and end-to-end metric: the relative change of the
   median, signed so that positive is worse, against the metric's bound.
   A pair is unresolved when either side's run-to-run spread
   (interquartile distance over median) is wider than the bound, unless
   every run of B reads better than every run of A. Every per-layer metric
   marked exact must read identically in every run of both sets. *)

module Json = Itf_obs.Json

let runs_of path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.of_string text with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j -> (
    match Json.member "runs" j with
    | Some (Json.List runs) -> runs
    | _ -> failwith (Printf.sprintf "%s: no \"runs\" list" path))

let workload_of r = Option.bind (Json.member "workload" r) Json.to_str

let values runs ~workload ~section ~metric =
  List.filter_map
    (fun r ->
      if workload_of r <> Some workload then None
      else
        Option.bind (Json.member section r) (fun s ->
            Option.bind (Json.member metric s) Json.to_float))
    runs
  |> Array.of_list

let run a_path b_path =
  let a = runs_of a_path and b = runs_of b_path in
  let bad = ref 0 in
  Printf.printf "%-14s %-16s %12s %12s %9s %6s %15s  %s\n" "workload" "metric" "A median"
    "B median" "change" "bound" "spread A / B" "verdict";
  List.iter
    (fun w ->
      let workload = Workload.name w in
      List.iter
        (fun (m : Catalogue.e2e) ->
          let va = values a ~workload ~section:"e2e" ~metric:m.name in
          let vb = values b ~workload ~section:"e2e" ~metric:m.name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let ma = Quant.median va and mb = Quant.median vb in
            let worse x y = match m.better with Catalogue.Lower -> y -. x | Higher -> x -. y in
            let change = worse ma mb /. Float.abs ma in
            let sa = Quant.spread va and sb = Quant.spread vb in
            let all_better =
              Array.for_all (fun y -> Array.for_all (fun x -> worse x y < 0.) va) vb
            in
            let verdict =
              if Float.max sa sb > m.bound && not all_better then "unresolved"
              else if change > m.bound then begin
                incr bad;
                "REGRESSION"
              end
              else "ok"
            in
            Printf.printf "%-14s %-16s %12.4f %12.4f %+8.1f%% %5.0f%% %6.1f%% / %5.1f%%  %s\n"
              workload m.name ma mb (100. *. change) (100. *. m.bound) (100. *. sa) (100. *. sb)
              verdict
          end)
        Catalogue.e2e;
      List.iter
        (fun (m : Catalogue.layer) ->
          if m.exact then begin
            let vs =
              Array.append
                (values a ~workload ~section:"per_layer" ~metric:m.lname)
                (values b ~workload ~section:"per_layer" ~metric:m.lname)
            in
            if Array.length vs > 0 && Array.exists (fun v -> v <> vs.(0)) vs then begin
              incr bad;
              Printf.printf "%-14s %-30s exact count differs: %s  MISMATCH\n" workload m.lname
                (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6g") vs)))
            end
          end)
        Catalogue.layers)
    Workload.all;
  if !bad > 0 then begin
    Printf.printf "%d regression(s) or exact-count mismatch(es)\n" !bad;
    1
  end
  else 0
