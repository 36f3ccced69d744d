(* The daemon's always-on instruments, read over its socket through the
   [status] and [metrics] ops, and the per-layer metrics derived from the
   difference of two readings. *)

module Json = Itf_obs.Json

type sample = { name : string; labels : (string * string) list; value : float }
type t = { prom : sample list; status : Json.t }

(* A server that has answered nothing: every counter is zero. *)
let empty = { prom = []; status = Json.Obj [] }

(* [name{k="v",...} value] lines of the Prometheus text format. Label
   values here never contain quotes or commas. *)
let parse_labels s =
  String.split_on_char ',' s
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | None -> None
         | Some i ->
           let v = String.sub kv (i + 1) (String.length kv - i - 1) in
           let v =
             if String.length v >= 2 && v.[0] = '"' then String.sub v 1 (String.length v - 2)
             else v
           in
           Some (String.sub kv 0 i, v))

let parse_prom text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some sp -> (
             let key = String.sub line 0 sp in
             match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
             | None -> None
             | Some value -> (
               match String.index_opt key '{' with
               | None -> Some { name = key; labels = []; value }
               | Some b ->
                 let inner = String.sub key (b + 1) (String.length key - b - 2) in
                 Some { name = String.sub key 0 b; labels = parse_labels inner; value })))

let take d =
  let parse_json s = match Json.of_string s with Ok j -> j | Error e -> failwith e in
  let status = parse_json (Daemon.op d "status") in
  let metrics = parse_json (Daemon.op d "metrics") in
  let text = Option.value ~default:"" (Option.bind (Json.member "metrics" metrics) Json.to_str) in
  { prom = parse_prom text; status }

let value t ?(labels = []) name =
  match List.find_opt (fun s -> s.name = name && s.labels = labels) t.prom with
  | Some s -> s.value
  | None -> 0.

(* Per-table hash-cons statistics from the status op. *)
let intern t table field =
  match Json.member "intern" t.status with
  | Some (Json.List rows) ->
    List.fold_left
      (fun acc row ->
        if table = "" || Json.member "table" row = Some (Json.String table) then
          acc +. Option.value ~default:0. (Option.bind (Json.member field row) Json.to_float)
        else acc)
      0. rows
  | _ -> 0.

let cache t field =
  Option.value ~default:0.
    (Option.bind (Json.member "cache" t.status) (fun c ->
         Option.bind (Json.member field c) Json.to_float))

(* Quantile of the observations a histogram received between two
   readings, from the difference of its cumulative bucket counts. *)
let histogram_quantile ~before ~after name q =
  let buckets t =
    List.filter_map
      (fun s ->
        if s.name <> name ^ "_bucket" then None
        else
          match s.labels with
          | [ ("le", le) ] -> Some ((if le = "+Inf" then infinity else float_of_string le), s.value)
          | _ -> None)
      t.prom
  in
  let a = List.sort compare (buckets after) in
  let cum le =
    List.fold_left (fun acc (l, v) -> if l = le then v else acc) 0. (buckets before)
  in
  let deltas = List.map (fun (le, v) -> (le, v -. cum le)) a in
  let bounds = List.filter_map (fun (le, _) -> if le = infinity then None else Some le) deltas in
  let cums = Array.of_list (List.map snd deltas) in
  let counts =
    Array.mapi (fun i c -> int_of_float (if i = 0 then c else c -. cums.(i - 1))) cums
  in
  if Array.length counts <> List.length bounds + 1 then 0.
  else
    Option.value ~default:0.
      (Itf_obs.Metrics.quantile_of_counts ~buckets:(Array.of_list bounds) ~counts q)

let ratio a b = if b > 0. then a /. b else 0.

(* The per-layer metrics of source [S], each with the span of requests it
   describes. Search quantities come from the measured phase when it ran
   searches; cached-repeat runs none, so for it they describe the
   warm-up's searches (the reading after warm-up against a fresh server's
   zero counters). *)
let layer_metrics ~warm ~final =
  let d ?labels b a name = value a ?labels name -. value b ?labels name in
  let phase_searches = d warm final "engine_total_time_ms_count" in
  let b, a, search_source =
    if phase_searches > 0. then (warm, final, "measured") else (empty, warm, "warm-up")
  in
  let searches = d b a "engine_total_time_ms_count" in
  let per_search x = ratio x searches in
  let phase p = per_search (d b a ~labels:[ ("phase", p) ] "engine_phase_us_sum") in
  let memo table =
    let h = intern a table "hits" -. intern b table "hits" in
    let m = intern a table "misses" -. intern b table "misses" in
    ratio h (h +. m)
  in
  let hits = cache final "hits" -. cache warm "hits" in
  let misses = cache final "misses" -. cache warm "misses" in
  let nodes = d b a "engine_nodes_explored" in
  let tier0 = d b a "objective_tier0_evals" in
  let exact = d b a "objective_exact_evals" in
  let measured = List.map (fun (k, v) -> (k, v, "measured")) in
  let search = List.map (fun (k, v) -> (k, v, search_source)) in
  measured
    [
      ("serve.cache_hit_ratio", ratio hits (hits +. misses));
      ("serve.request_p50_us", histogram_quantile ~before:warm ~after:final "serve_request_us" 0.5);
      (* The wait histogram's first bucket is [0, 1 ms], and a single
         connection's waits all fall in it, so its quantiles would read
         the same constant on every run; the mean keeps the sum's 1 us
         resolution. *)
      ( "serve.queue_wait_mean_us",
        1e3
        *. ratio
             (d warm final "serve_queue_wait_ms_sum")
             (d warm final "serve_queue_wait_ms_count") );
      ("intmat.entries", intern final "" "size" -. intern warm "" "size");
      ("intmat.evictions", intern final "" "evictions" -. intern warm "" "evictions");
    ]
  @ search
      [
        ("opt.search_us", per_search (d b a "engine_total_time_ms_sum" *. 1e3));
        ("opt.expand_us", phase "expand");
        ("core.legality_us", phase "legality");
        ("opt.tier0_us", phase "tier0");
        ("opt.exact_us", phase "exact");
        ("opt.merge_us", phase "merge");
        ("opt.nodes_per_search", per_search nodes);
        ("core.template_apps_per_search", per_search (d b a "engine_template_applications"));
        ("opt.tier0_evals_per_search", per_search tier0);
        ("opt.exact_evals_per_search", per_search exact);
        ("opt.tier0_pass_ratio", ratio exact tier0);
        ("opt.step_cache_hit_ratio", ratio (d b a "engine_cache_hit") nodes);
        ("intmat.memo_hit_ratio.memsim", memo "opt.obj.memsim");
        ("intmat.memo_hit_ratio.parsim", memo "opt.obj.parsim");
        ("intmat.memo_hit_ratio.tier0", memo "opt.tier0");
        ("machine.memsim_runs_per_search", per_search (d b a "memsim_runs"));
        ("machine.parsim_runs_per_search", per_search (d b a "parsim_runs"));
      ]
