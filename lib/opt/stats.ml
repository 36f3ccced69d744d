(* One search's statistics. The record is the search's own accumulator:
   [Engine.search] creates one per call, bumps its fields while it runs
   and returns it in the outcome — it never escapes to another search, so
   concurrent searches cannot corrupt each other's stats. [record]
   publishes into the metrics registry with atomic, commutative
   instrument updates only, so concurrent recording from several serve
   workers yields exact totals. *)
type t = {
  mutable nodes_explored : int;
  mutable duplicates_pruned : int;
  mutable legality_cache_hits : int;
  mutable score_cache_hits : int;
  mutable illegal : int;
  mutable template_applications : int;
  mutable template_applications_saved : int;
  mutable objective_evaluations : int;
  mutable tier0_evaluations : int;
  mutable tier0_pruned : int;
  mutable families_built : int;
  mutable refs_inherited : int;
  mutable refs_mapped : int;
  mutable refs_computed : int;
  mutable codegen : int array;
  mutable domains : int;
  mutable work_threshold : int;
  mutable expand_time_s : float;
  mutable evaluate_time_s : float;
  mutable legality_time_s : float;
  mutable tier0_time_s : float;
  mutable exact_time_s : float;
  mutable merge_time_s : float;
  mutable total_time_s : float;
}

let create () =
  {
    nodes_explored = 0;
    duplicates_pruned = 0;
    legality_cache_hits = 0;
    score_cache_hits = 0;
    illegal = 0;
    template_applications = 0;
    template_applications_saved = 0;
    objective_evaluations = 0;
    tier0_evaluations = 0;
    tier0_pruned = 0;
    families_built = 0;
    refs_inherited = 0;
    refs_mapped = 0;
    refs_computed = 0;
    codegen = Array.make (Array.length Itf_core.Template.kinds) 0;
    domains = 0;
    work_threshold = 0;
    expand_time_s = 0.;
    evaluate_time_s = 0.;
    legality_time_s = 0.;
    tier0_time_s = 0.;
    exact_time_s = 0.;
    merge_time_s = 0.;
    total_time_s = 0.;
  }

module Json = Itf_obs.Json
module Metrics = Itf_obs.Metrics

type source =
  | Count of (t -> int) * string list
  | Shared of (t -> int) * string
  | Templates of (t -> int array) * string
  | Setting of (t -> int) * string
  | Phase of (t -> float) * string
  | Time of (t -> float) * string option
  | Read of string

type text = Line of string | Join of string | Above of string
type stat = { key : string; text : text; source : source }

let stat key text source = { key; text; source }

(* The registry counters the cache simulator and the dependence analysis
   bump; the search's statistics read them back. *)
let memsim_runs = "memsim.runs"
let memsim_certified = "memsim.certified"
let memsim_stream_entries = "memsim.stream.entries"
let memsim_stream_fallbacks = "memsim.stream.fallbacks"
let dep_fm_calls = "dep.fm_calls"
let dep_sigmas = "dep.sigmas"
let compile_closures = "exec.compile.closures"

(* One declaration per statistic, in --stats-json order. A cached
   candidate bumps both cache-hit fields when its score was cached too,
   so [engine.cache.hit] counts the legality hits: one per candidate. *)
let ledger =
  [
    stat "nodes_explored" (Line "nodes explored        {}")
      (Count ((fun s -> s.nodes_explored), [ "engine.nodes_explored" ]));
    stat "duplicates_pruned" (Line "duplicates pruned     {}")
      (Count ((fun s -> s.duplicates_pruned), [ "engine.duplicates_pruned" ]));
    stat "legality_cache_hits" (Line "legality cache hits   {}")
      (Count
         ( (fun s -> s.legality_cache_hits),
           [ "engine.legality_cache_hits"; "engine.cache.hit" ] ));
    stat "score_cache_hits" (Line "score cache hits      {}")
      (Count ((fun s -> s.score_cache_hits), [ "engine.score_cache_hits" ]));
    stat "illegal" (Line "illegal candidates    {}")
      (Count ((fun s -> s.illegal), [ "engine.illegal" ]));
    stat "template_applications" (Line "template applications {}")
      (Count
         ( (fun s -> s.template_applications),
           [ "engine.template_applications" ] ));
    stat "template_applications_saved" (Join " (saved {} vs from-root replay)")
      (Count
         ( (fun s -> s.template_applications_saved),
           [ "engine.template_applications_saved" ] ));
    stat "objective_evaluations" (Line "objective evaluations {}")
      (Count
         ( (fun s -> s.objective_evaluations),
           [ "engine.objective_evaluations"; "objective.exact_evals" ] ));
    stat "tier0_evaluations" (Line "tier-0 evaluations    {}")
      (Count ((fun s -> s.tier0_evaluations), [ "objective.tier0_evals" ]));
    stat "tier0_pruned" (Join " (pruned {} candidates before the exact tier)")
      (Count ((fun s -> s.tier0_pruned), [ "objective.tier0_pruned" ]));
    stat "families_built" (Line "families built        {}")
      (Shared ((fun s -> s.families_built), "core.families.built"));
    stat "refs_inherited" (Line "reference forms       {} inherited")
      (Shared ((fun s -> s.refs_inherited), "core.refs.inherited"));
    stat "refs_mapped" (Join ", {} mapped")
      (Shared ((fun s -> s.refs_mapped), "core.refs.mapped"));
    stat "refs_computed" (Join ", {} computed")
      (Shared ((fun s -> s.refs_computed), "core.refs.computed"));
    stat "codegen" (Line "code generation       {}")
      (Templates ((fun s -> s.codegen), "core.codegen"));
    stat "domains" (Line "domains               {}")
      (Setting ((fun s -> s.domains), "engine.domains"));
    stat "work_threshold" (Join " (sequential below {} candidates/step)")
      (Setting ((fun s -> s.work_threshold), "engine.work_threshold"));
    stat "expand_time_s" (Line "time: expand {}s")
      (Phase ((fun s -> s.expand_time_s), "expand"));
    stat "evaluate_time_s" (Join ", evaluate {}s")
      (Time ((fun s -> s.evaluate_time_s), None));
    stat "legality_time_s" (Join " (legality {}s")
      (Phase ((fun s -> s.legality_time_s), "legality"));
    stat "tier0_time_s" (Join ", tier-0 {}s")
      (Phase ((fun s -> s.tier0_time_s), "tier0"));
    stat "exact_time_s" (Join ", exact {}s)")
      (Phase ((fun s -> s.exact_time_s), "exact"));
    stat "merge_time_s" (Join ", merge {}s")
      (Phase ((fun s -> s.merge_time_s), "merge"));
    stat "total_time_s" (Join ", total {}s")
      (Time ((fun s -> s.total_time_s), Some "engine.total_time_ms"));
    stat "memsim_runs" (Line "memsim runs          {} simulated")
      (Read memsim_runs);
    stat "memsim_certified" (Join ", {} certified") (Read memsim_certified);
    (* --stats printed the stream line above the runs line before
       --stats-json listed the runs first. *)
    stat "memsim_stream_entries" (Above "memsim stream        {} entries")
      (Read memsim_stream_entries);
    stat "memsim_stream_fallbacks" (Join ", {} fallbacks")
      (Read memsim_stream_fallbacks);
    stat "dep_fm_calls" (Line "dependence FM calls  {}") (Read dep_fm_calls);
    stat "dep_sigmas" (Line "dependence sigmas    {}") (Read dep_sigmas);
    stat "compile_closures" (Line "statement closures   {} compiled")
      (Read compile_closures);
  ]

(* A registry read has no value without a registry. *)
let value ?metrics s st =
  match st.source with
  | Count (f, _) | Shared (f, _) | Setting (f, _) -> Some (Json.Int (f s))
  | Templates (f, _) ->
    let counts = f s in
    Some
      (Json.Obj
         (List.filteri
            (fun k _ -> counts.(k) > 0)
            (Array.to_list
               (Array.mapi
                  (fun k name -> (name, Json.Int counts.(k)))
                  Itf_core.Template.kinds))))
  | Phase (f, _) | Time (f, _) -> Some (Json.Float (f s))
  | Read name ->
    Option.map (fun m -> Json.Int (Metrics.read_counter m name)) metrics

let phases s =
  List.filter_map
    (fun st ->
      match st.source with Phase (f, p) -> Some (p, f s) | _ -> None)
    ledger

let to_json_value ?metrics s =
  Json.Obj
    (List.filter_map
       (fun st -> Option.map (fun v -> (st.key, v)) (value ?metrics s st))
       ledger)

(* [--stats] text with the value in place of its "{}"; a count per
   template reads [Block 4, Unimodular 2]. *)
let fill text v =
  let v =
    match v with
    | Json.Float x -> Printf.sprintf "%.3f" x
    | Json.Obj [] -> "none"
    | Json.Obj kvs ->
      String.concat ", " (List.map (fun (k, n) -> k ^ " " ^ Json.to_string n) kvs)
    | v -> Json.to_string v
  in
  let i = String.index text '{' in
  String.sub text 0 i ^ v ^ String.sub text (i + 2) (String.length text - i - 2)

(* [cur] is the line a [Join] continues; an [Above] line goes before the
   line above it. *)
let lines ?metrics s =
  let add (lines, cur) st =
    match (value ?metrics s st, st.text, lines) with
    | None, _, _ -> (lines, cur)
    | Some v, Join t, _ ->
      cur := !cur ^ fill t v;
      (lines, cur)
    | Some v, Above t, prev :: rest ->
      let line = ref (fill t v) in
      (prev :: line :: rest, line)
    | Some v, (Line t | Above t), _ ->
      let line = ref (fill t v) in
      (line :: lines, line)
  in
  List.rev_map ( ! ) (fst (List.fold_left add ([], ref "") ledger))

let pp ?metrics ppf s =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list Format.pp_print_string)
    (lines ?metrics s)

let duration ?labels m name =
  Metrics.histogram m ?labels ~buckets:Metrics.duration_buckets name

let phase_histogram m p =
  duration ~labels:[ ("phase", p) ] m "engine.phase_us"

(* The writes [record] makes to one registry for one statistic. *)
let resolve m st =
  match st.source with
  | Count (f, names) ->
    List.map
      (fun name ->
        let c = Metrics.counter m name in
        fun s -> Metrics.add c (f s))
      names
  | Shared (f, name) ->
    let c = Metrics.counter m name in
    [ (fun s -> Metrics.add c (f s)) ]
  | Templates (f, name) ->
    List.mapi
      (fun k template ->
        let c = Metrics.counter m ~labels:[ ("template", template) ] name in
        fun s -> Metrics.add c (f s).(k))
      (Array.to_list Itf_core.Template.kinds)
  | Setting (f, name) ->
    let g = Metrics.gauge m name in
    [ (fun s -> Metrics.set g (float_of_int (f s))) ]
  | Phase (f, p) ->
    let h = phase_histogram m p in
    [ (fun s -> Metrics.observe h (f s *. 1e6)) ]
  | Time (f, Some name) ->
    let h = duration m name in
    [ (fun s -> Metrics.observe h (f s *. 1e3)) ]
  | Time (_, None) | Read _ -> []

(* The writes for the registry [record] wrote last: a process that
   records every search into one registry (a serve daemon) resolves
   them once. Racing domains may each resolve and store; a registry
   always resolves to the same instruments, and [record] checks whose
   they are before using them, so any store is right. *)
let last_resolved : (Metrics.t * (t -> unit) list) option Atomic.t =
  Atomic.make None

let record metrics s =
  let writes =
    match Atomic.get last_resolved with
    | Some (m, writes) when m == metrics -> writes
    | _ ->
      let writes = List.concat_map (resolve metrics) ledger in
      Atomic.set last_resolved (Some (metrics, writes));
      writes
  in
  List.iter (fun write -> write s) writes

(* Each section is a run of neighbouring statistics: the phases, the
   searches' total (a histogram in milliseconds), then each read's
   metric name prefix, its field the rest of the name
   (memsim.stream.entries is memsim's stream_entries). *)
let status m =
  let fields st =
    match st.source with
    | Phase (_, p) ->
      let sum = Metrics.histogram_sum (phase_histogram m p) in
      [ ("phases_us", (p, Json.Float sum)) ]
    | Time (_, Some name) ->
      let h = duration m name in
      [
        ("search_us", ("count", Json.Int (Metrics.histogram_count h)));
        ("search_us", ("total", Json.Float (Metrics.histogram_sum h *. 1e3)));
      ]
    | Read name ->
      let i = String.index name '.' in
      let field = String.sub name (i + 1) (String.length name - i - 1) in
      let field = String.map (function '.' -> '_' | c -> c) field in
      let v = Json.Int (Metrics.read_counter m name) in
      [ (String.sub name 0 i, (field, v)) ]
    | Count _ | Shared _ | Templates _ | Setting _ | Time (_, None) -> []
  in
  let group (sec, v) = function
    | (s, vs) :: rest when s = sec -> (s, v :: vs) :: rest
    | sections -> (sec, [ v ]) :: sections
  in
  List.map
    (fun (sec, vs) -> (sec, Json.Obj vs))
    (List.fold_right group (List.concat_map fields ledger) [])
