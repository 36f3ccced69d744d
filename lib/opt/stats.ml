(* One search's statistics. The record is immutable and built per search
   from the engine's search context (engine.ml, [sctx]) — there is no
   shared mutable state here, so concurrent searches cannot corrupt each
   other's stats. [record] publishes into the metrics registry with
   atomic, commutative instrument updates only, so concurrent recording
   from several serve workers yields exact totals. *)
type t = {
  nodes_explored : int;
  duplicates_pruned : int;
  legality_cache_hits : int;
  score_cache_hits : int;
  illegal : int;
  template_applications : int;
  template_applications_saved : int;
  objective_evaluations : int;
  tier0_evaluations : int;
  tier0_pruned : int;
  domains : int;
  work_threshold : int;
  expand_time_s : float;
  evaluate_time_s : float;
  legality_time_s : float;
  tier0_time_s : float;
  exact_time_s : float;
  merge_time_s : float;
  total_time_s : float;
}

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

let to_json_value s =
  Itf_obs.Json.Obj
    [
      ("nodes_explored", Itf_obs.Json.Int s.nodes_explored);
      ("duplicates_pruned", Itf_obs.Json.Int s.duplicates_pruned);
      ("legality_cache_hits", Itf_obs.Json.Int s.legality_cache_hits);
      ("score_cache_hits", Itf_obs.Json.Int s.score_cache_hits);
      ("illegal", Itf_obs.Json.Int s.illegal);
      ("template_applications", Itf_obs.Json.Int s.template_applications);
      ( "template_applications_saved",
        Itf_obs.Json.Int s.template_applications_saved );
      ("objective_evaluations", Itf_obs.Json.Int s.objective_evaluations);
      ("tier0_evaluations", Itf_obs.Json.Int s.tier0_evaluations);
      ("tier0_pruned", Itf_obs.Json.Int s.tier0_pruned);
      ("domains", Itf_obs.Json.Int s.domains);
      ("work_threshold", Itf_obs.Json.Int s.work_threshold);
      ("expand_time_s", Itf_obs.Json.Float s.expand_time_s);
      ("evaluate_time_s", Itf_obs.Json.Float s.evaluate_time_s);
      ("legality_time_s", Itf_obs.Json.Float s.legality_time_s);
      ("tier0_time_s", Itf_obs.Json.Float s.tier0_time_s);
      ("exact_time_s", Itf_obs.Json.Float s.exact_time_s);
      ("merge_time_s", Itf_obs.Json.Float s.merge_time_s);
      ("total_time_s", Itf_obs.Json.Float s.total_time_s);
    ]

let to_json s = Itf_obs.Json.to_string (to_json_value s)

let record metrics s =
  let c name v = Itf_obs.Metrics.add (Itf_obs.Metrics.counter metrics name) v in
  c "engine.nodes_explored" s.nodes_explored;
  c "engine.duplicates_pruned" s.duplicates_pruned;
  c "engine.cache.hit" (s.legality_cache_hits + s.score_cache_hits);
  c "engine.legality_cache_hits" s.legality_cache_hits;
  c "engine.score_cache_hits" s.score_cache_hits;
  c "engine.illegal" s.illegal;
  c "engine.template_applications" s.template_applications;
  c "engine.template_applications_saved" s.template_applications_saved;
  c "engine.objective_evaluations" s.objective_evaluations;
  c "objective.exact_evals" s.objective_evaluations;
  c "objective.tier0_evals" s.tier0_evaluations;
  c "objective.tier0_pruned" s.tier0_pruned;
  Itf_obs.Metrics.set
    (Itf_obs.Metrics.gauge metrics "engine.domains")
    (float_of_int s.domains);
  Itf_obs.Metrics.set
    (Itf_obs.Metrics.gauge metrics "engine.work_threshold")
    (float_of_int s.work_threshold);
  Itf_obs.Metrics.observe
    (Itf_obs.Metrics.histogram metrics
       ~buckets:Itf_obs.Metrics.duration_buckets "engine.total_time_ms")
    (s.total_time_s *. 1e3);
  (* One observation per phase per search, in microseconds on the shared
     log-linear layout: histogram sums give the aggregate per-phase time
     breakdown, quantiles its per-search distribution — available even
     when tracing is disabled or the request was sampled out. *)
  let phase name v_s =
    Itf_obs.Metrics.observe
      (Itf_obs.Metrics.histogram metrics
         ~labels:[ ("phase", name) ]
         ~buckets:Itf_obs.Metrics.duration_buckets "engine.phase_us")
      (v_s *. 1e6)
  in
  phase "expand" s.expand_time_s;
  phase "legality" s.legality_time_s;
  phase "tier0" s.tier0_time_s;
  phase "exact" s.exact_time_s;
  phase "merge" s.merge_time_s
