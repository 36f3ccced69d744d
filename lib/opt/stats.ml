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

let phases s =
  [
    ("expand", s.expand_time_s);
    ("legality", s.legality_time_s);
    ("tier0", s.tier0_time_s);
    ("exact", s.exact_time_s);
    ("merge", s.merge_time_s);
  ]

let pp ppf s =
  Format.fprintf ppf
    "@[<v>nodes explored        %d@,\
     duplicates pruned     %d@,\
     legality cache hits   %d@,\
     score cache hits      %d@,\
     illegal candidates    %d@,\
     template applications %d (saved %d vs from-root replay)@,\
     objective evaluations %d@,\
     tier-0 evaluations    %d (pruned %d candidates before the exact tier)@,\
     domains               %d (sequential below %d candidates/step)@,\
     time: expand %.3fs, evaluate %.3fs (legality %.3fs, tier-0 %.3fs, \
     exact %.3fs), merge %.3fs, total %.3fs@]"
    s.nodes_explored s.duplicates_pruned s.legality_cache_hits
    s.score_cache_hits s.illegal s.template_applications
    s.template_applications_saved s.objective_evaluations s.tier0_evaluations
    s.tier0_pruned s.domains s.work_threshold s.expand_time_s s.evaluate_time_s
    s.legality_time_s s.tier0_time_s s.exact_time_s s.merge_time_s
    s.total_time_s

let counters s =
  [
    ("nodes_explored", s.nodes_explored);
    ("duplicates_pruned", s.duplicates_pruned);
    ("legality_cache_hits", s.legality_cache_hits);
    ("score_cache_hits", s.score_cache_hits);
    ("illegal", s.illegal);
    ("template_applications", s.template_applications);
    ("template_applications_saved", s.template_applications_saved);
    ("objective_evaluations", s.objective_evaluations);
    ("tier0_evaluations", s.tier0_evaluations);
    ("tier0_pruned", s.tier0_pruned);
  ]

let to_json_value s =
  let open Itf_obs.Json in
  Obj
    (List.map (fun (k, v) -> (k, Int v)) (counters s)
    @ [
        ("domains", Int s.domains);
        ("work_threshold", Int s.work_threshold);
        ("expand_time_s", Float s.expand_time_s);
        ("evaluate_time_s", Float s.evaluate_time_s);
        ("legality_time_s", Float s.legality_time_s);
        ("tier0_time_s", Float s.tier0_time_s);
        ("exact_time_s", Float s.exact_time_s);
        ("merge_time_s", Float s.merge_time_s);
        ("total_time_s", Float s.total_time_s);
      ])

let to_json s = Itf_obs.Json.to_string (to_json_value s)

module Metrics = Itf_obs.Metrics

(* The instruments [record] writes, resolved in one registry. *)
type instruments = {
  registry : Metrics.t;
  counters : (Metrics.counter * (t -> int)) list;
  domains_g : Metrics.gauge;
  threshold_g : Metrics.gauge;
  total_h : Metrics.histogram;
  phase_h : Metrics.histogram list;  (* in [phases] order *)
}

let resolve m =
  let c name f = (Metrics.counter m name, f) in
  let duration ?labels name =
    Metrics.histogram m ?labels ~buckets:Metrics.duration_buckets name
  in
  {
    registry = m;
    counters =
      [
        c "engine.nodes_explored" (fun s -> s.nodes_explored);
        c "engine.duplicates_pruned" (fun s -> s.duplicates_pruned);
        c "engine.cache.hit" (fun s -> s.legality_cache_hits + s.score_cache_hits);
        c "engine.legality_cache_hits" (fun s -> s.legality_cache_hits);
        c "engine.score_cache_hits" (fun s -> s.score_cache_hits);
        c "engine.illegal" (fun s -> s.illegal);
        c "engine.template_applications" (fun s -> s.template_applications);
        c "engine.template_applications_saved" (fun s ->
            s.template_applications_saved);
        c "engine.objective_evaluations" (fun s -> s.objective_evaluations);
        c "objective.exact_evals" (fun s -> s.objective_evaluations);
        c "objective.tier0_evals" (fun s -> s.tier0_evaluations);
        c "objective.tier0_pruned" (fun s -> s.tier0_pruned);
      ];
    domains_g = Metrics.gauge m "engine.domains";
    threshold_g = Metrics.gauge m "engine.work_threshold";
    total_h = duration "engine.total_time_ms";
    phase_h =
      List.map
        (fun (name, _) -> duration ~labels:[ ("phase", name) ] "engine.phase_us")
        (phases (create ()));
  }

(* The instruments of the registry [record] wrote last: a process that
   records every search into one registry (a serve daemon) resolves
   them once. Racing domains may each resolve and store; a registry
   always resolves to the same instruments, and [record] checks whose
   they are before using them, so any store is right. *)
let last_resolved : instruments option Atomic.t = Atomic.make None

let record metrics s =
  let inst =
    match Atomic.get last_resolved with
    | Some inst when inst.registry == metrics -> inst
    | _ ->
      let inst = resolve metrics in
      Atomic.set last_resolved (Some inst);
      inst
  in
  List.iter (fun (c, f) -> Metrics.add c (f s)) inst.counters;
  Metrics.set inst.domains_g (float_of_int s.domains);
  Metrics.set inst.threshold_g (float_of_int s.work_threshold);
  Metrics.observe inst.total_h (s.total_time_s *. 1e3);
  (* One observation per phase per search, in microseconds on the shared
     log-linear layout: histogram sums give the aggregate per-phase time
     breakdown, quantiles its per-search distribution — available even
     when tracing is disabled or the request was sampled out. *)
  List.iter2
    (fun h (_, v_s) -> Metrics.observe h (v_s *. 1e6))
    inst.phase_h (phases s)
