(* Every metric the bench reports: name, unit, direction, and for the
   end-to-end ones the bound a change may worsen them by. BENCHMARK.json
   at the repository root lists the same metrics; [check_manifest] fails
   the run when the two disagree. *)

module Json = Itf_obs.Json

type better = Lower | Higher

let better_label = function Lower -> "lower" | Higher -> "higher"

type e2e = { name : string; unit_ : string; better : better; bound : float }

let e2e =
  [
    { name = "throughput_rps"; unit_ = "req/s"; better = Higher; bound = 0.25 };
    { name = "latency_p50_ms"; unit_ = "ms"; better = Lower; bound = 0.25 };
    { name = "latency_p90_ms"; unit_ = "ms"; better = Lower; bound = 0.25 };
    { name = "cpu_ms_per_req"; unit_ = "ms"; better = Lower; bound = 0.25 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.15 };
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
  ]

(* Per-layer metrics; bench/e2e/README.md says where each comes from and
   which end-to-end metric and workload it should move. [exact]: a
   deterministic count that must repeat identically across runs and
   seeds. *)
type layer = { lname : string; lunit : string; lbetter : better; exact : bool }

let l ?(exact = false) lname lunit lbetter = { lname; lunit; lbetter; exact }

let layers =
  [
    l "serve.cache_hit_ratio" "ratio" Higher;
    l "serve.request_p50_us" "us" Lower;
    l "serve.queue_wait_mean_us" "us" Lower;
    l "serve.hit_us" "us" Lower;
    l "lang.parse_us" "us" Lower;
    l "ir.intern_us" "us" Lower;
    l "dep.vectors_us" "us" Lower;
    l "opt.search_us" "us" Lower;
    l "opt.expand_us" "us" Lower;
    l "core.legality_us" "us" Lower;
    l "opt.tier0_us" "us" Lower;
    l "opt.exact_us" "us" Lower;
    l "opt.merge_us" "us" Lower;
    l ~exact:true "opt.nodes_per_search" "count" Lower;
    l ~exact:true "core.template_apps_per_search" "count" Lower;
    l ~exact:true "opt.tier0_evals_per_search" "count" Lower;
    l ~exact:true "opt.exact_evals_per_search" "count" Lower;
    l "opt.tier0_pass_ratio" "ratio" Lower;
    l "opt.step_cache_hit_ratio" "ratio" Higher;
    l "opt.objective_us" "us" Lower;
    l "intmat.entries" "count" Lower;
    l "intmat.evictions" "count" Lower;
    l "intmat.memo_hit_ratio.memsim" "ratio" Higher;
    l "intmat.memo_hit_ratio.parsim" "ratio" Higher;
    l "intmat.memo_hit_ratio.tier0" "ratio" Higher;
    l "machine.memsim_runs_per_search" "count" Lower;
    l "machine.parsim_runs_per_search" "count" Lower;
    l "exec.compile_us" "us" Lower;
    l "machine.memsim_us" "us" Lower;
    l "machine.parsim_us" "us" Lower;
    l "gc.minor_words_per_req" "words" Lower;
    l "gc.major_per_1k_req" "count" Lower;
    l "gc.heap_mb_end" "MB" Lower;
    l "trace.overhead_ratio" "ratio" Lower;
  ]

let find_e2e name = List.find (fun m -> m.name = name) e2e
let find_layer name = List.find (fun m -> m.lname = name) layers

(* The manifest must name exactly these metrics with the same units,
   directions and bounds. *)
let check_manifest path =
  let fail fmt = Printf.ksprintf failwith ("%s: " ^^ fmt) path in
  let text = try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> fail "%s" e in
  let json = match Json.of_string text with Ok j -> j | Error e -> fail "%s" e in
  let entries key =
    match Json.member key json with
    | Some (Json.List l) -> l
    | _ -> fail "missing list %S" key
  in
  let str k v = Option.bind (Json.member k v) Json.to_str in
  let expect key want =
    let got =
      List.map
        (fun v ->
          ( Option.value ~default:"" (str "name" v),
            Option.value ~default:"" (str "unit" v),
            Option.value ~default:"" (str "better" v),
            Option.bind (Json.member "bound" v) Json.to_float ))
        (entries key)
    in
    if got <> want then fail "%S does not match the bench's metric catalogue" key
  in
  expect "end_to_end"
    (List.map (fun m -> (m.name, m.unit_, better_label m.better, Some m.bound)) e2e);
  expect "per_layer"
    (List.map (fun m -> (m.lname, m.lunit, better_label m.lbetter, None)) layers);
  let workloads = List.filter_map (str "name") (entries "workloads") in
  if workloads <> List.map Workload.name Workload.all then
    fail "\"workloads\" does not match the bench's workloads"
