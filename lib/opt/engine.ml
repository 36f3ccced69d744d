open Itf_ir
module Template = Itf_core.Template
module Framework = Itf_core.Framework
module Sequence = Itf_core.Sequence
module Legality = Itf_core.Legality
module Tracer = Itf_obs.Tracer
module Metrics = Itf_obs.Metrics

type cause = Rejected of Legality.reason list | Unscoreable

type tier0_verdict = Survived | Screened_out | Bound_pruned

type decision = {
  candidate : Sequence.t;
  tier0_score : float;
  tier0_bound : float;
  verdict : tier0_verdict;
}

(* Declared after [decision] so unannotated [.candidate] / [.cause]
   accesses keep resolving here, as they did before tiering existed. *)
type rejection = { candidate : Sequence.t; cause : cause }

(* Anytime budget: wall-clock deadline (seconds from search start) and/or
   node cap, both checked only at batch boundaries — see [search]. *)
type budget = { deadline_s : float option; max_nodes : int option }

type completion = Complete | Degraded of { cut : string }

type outcome = {
  sequence : Sequence.t;
  canonical : Sequence.t;
  result : Framework.result;
  score : float;
  stats : Stats.t;
  completion : completion;
  rejections : rejection list;
  decisions : decision list;
}

let pp_cause ppf = function
  | Unscoreable ->
    Format.fprintf ppf "objective unscoreable (NaN or simulator failure)"
  | Rejected reasons ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
      Legality.pp_reason ppf reasons

let cause_labels = function
  | Unscoreable -> [ "unscoreable" ]
  | Rejected reasons -> List.map Legality.reason_label reasons

let verdict_label = function
  | Survived -> "survived"
  | Screened_out -> "screened_out"
  | Bound_pruned -> "bound_pruned"

let completion_label = function Complete -> "ok" | Degraded _ -> "degraded"

(* The cross-step cache is keyed on the canonical sequence's dense intern
   id from {!Sequence.reduce_memo}: hashing and equality are single
   integer operations. Ids are used for {e equality only}, never ordering:
   [order] below stays structural, so winners are independent of
   intern-table history. *)
module KeyTbl = Hashtbl.Make (Itf_mat.Hashcons.Int_key)

(* A frontier node: a legality-checked, exactly scored candidate. [state]
   is the resumable prefix (possibly the state of [canon] rather than
   [seq] when the node was served from cache — the two generate the same
   nest, so extensions agree). *)
type node = {
  seq : Sequence.t;
  canon : Sequence.t;
  key : int;
  state : Framework.state;
  result : Framework.result;
  score : float;
}

(* A legality-checked candidate holding only a tier-0 estimate: it was
   screened out of the exact tier (or has not reached it yet). Kept in the
   cache so a re-derived spelling skips legality AND tier-0 work. Under an
   open screen [cest] is {!open_estimate}. *)
type checked = {
  cseq : Sequence.t;
  ccanon : Sequence.t;
  ckey : int;
  cstate : Framework.state;
  cresult : Framework.result;
  cest : Costmodel.estimate;
}

(* Cross-step memo entries, keyed on canonical sequences. *)
type entry = Scored of node | Checked of checked | Failed of cause

(* Total order on candidates: (score, canonical sequence, raw sequence).
   Beam cut-offs and the final winner are therefore independent of
   generation order and of domain scheduling. *)
let order a b =
  let c = Float.compare a.score b.score in
  if c <> 0 then c
  else
    let c = Sequence.compare a.canon b.canon in
    if c <> 0 then c else Sequence.compare a.seq b.seq

(* The structural part of the candidate order alone — what the beam falls
   back to when exact scores tie. *)
let order_structural a b =
  let c = Sequence.compare a.ccanon b.ccanon in
  if c <> 0 then c else Sequence.compare a.cseq b.cseq

(* Same total order on tier-0 estimates. *)
let order_checked a b =
  let c = Float.compare a.cest.Costmodel.score b.cest.Costmodel.score in
  if c <> 0 then c else order_structural a b

(* Per-search mutable state — the search context. One [sctx] is created
   at the top of every [search] call and never escapes it: the engine
   keeps NO module-level mutable state, so any number of searches may run
   concurrently (one per serve worker) as long as each holds its own
   context. The shared structures a search reaches from here — the intern
   tables, the objective/canonicalization memos, the metrics registry,
   the domain pool — are each concurrency-safe on their own terms
   (sharded tables, atomic instruments; DESIGN.md §13). The cross-step
   candidate cache is likewise per-search, created alongside the root
   node: concurrent requests share warm state through the process-wide
   memos, never through engine internals. *)
type sctx = {
  t_start : float;  (* budget clock origin: wall clock at search start *)
  mutable explored : int;
  mutable duplicates : int;
  mutable legality_hits : int;
  mutable score_hits : int;
  mutable illegal : int;
  mutable applications : int;
  mutable saved : int;
  mutable objective_evals : int;
  mutable tier0_evals : int;
  mutable tier0_pruned : int;
  (* Phase timers (seconds). With one domain the finer-grained sums
     partition evaluate_time (up to batch machinery); with several they
     are CPU time, not wall. *)
  mutable expand_time : float;
  mutable evaluate_time : float;
  mutable legality_time : float;
  mutable tier0_time : float;
  mutable exact_time : float;
  mutable merge_time : float;
  mutable cut : string option;  (* first tripped budget checkpoint *)
  mutable rejections : rejection list;  (* provenance, newest first *)
  mutable decisions : decision list;  (* tier-0 provenance, newest first *)
}

let fresh_sctx () =
  {
    t_start = Unix.gettimeofday ();
    explored = 0;
    duplicates = 0;
    legality_hits = 0;
    score_hits = 0;
    illegal = 0;
    applications = 0;
    saved = 0;
    objective_evals = 0;
    tier0_evals = 0;
    tier0_pruned = 0;
    expand_time = 0.;
    evaluate_time = 0.;
    legality_time = 0.;
    tier0_time = 0.;
    exact_time = 0.;
    merge_time = 0.;
    cut = None;
    rejections = [];
    decisions = [];
  }

(* Legality of one candidate: extend the parent prefix by one template and
   run the final dependence test. [count] accumulates the template
   applications performed. *)
let check_legal ~count (parent, t) =
  match Framework.extend ~count parent.state t with
  | Error v -> Error (Rejected (Legality.reasons v))
  | Ok st -> (
    match Framework.finish st with
    | Error v -> Error (Rejected (Legality.reasons v))
    | Ok result -> Ok (st, result))

(* An exact score, or [Unscoreable] when the objective returns NaN or
   raises. *)
let score_with f =
  match f () with
  | s when Float.is_nan s -> Error Unscoreable
  | s -> Ok s
  | exception _ -> Error Unscoreable

(* Tier-0 evaluation of one candidate: legality, then the screen's
   estimate — no simulation. Runs on worker domains: all mutable state
   ([count]) is local, and the coordinator merges the result in input
   order. The two trailing floats are the candidate's legality and
   estimate durations, folded into the per-phase breakdown. *)
let evaluate_tier0 estimate cand =
  let count = ref 0 in
  let t_start = Unix.gettimeofday () in
  let checked = check_legal ~count cand in
  let t_leg = Unix.gettimeofday () in
  match checked with
  | Error cause -> (Error cause, !count, t_leg -. t_start, 0.)
  | Ok (st, result) ->
    let est = estimate result in
    (Ok (st, result, est), !count, t_leg -. t_start, Unix.gettimeofday () -. t_leg)

(* The estimate an open screen gives every candidate. All candidates then
   form one estimate tie class, which the top-K cut never splits, and a
   [-inf] bound never exceeds the incumbent: every legal candidate reaches
   the exact tier. An untiered search is the tiered pipeline with this
   screen. *)
let open_estimate = { Costmodel.score = 0.; bound = Float.neg_infinity }

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

let default_exact_topk = 12

let search ?(beam = 6) ?(steps = 3) ?domains ?(tracer = Tracer.null)
    ?metrics ?(provenance = false) ?tier0 ?(exact_topk = default_exact_topk)
    ?(tier0_only = false) ?budget nest (objective : Search.objective) =
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  (* A beam member must carry a score, so the exact tier can never feed
     the beam fewer candidates than it holds. *)
  let exact_topk = max beam exact_topk in
  (* Without [tier0] the screen is open: its estimates are neither
     counted, timed nor recorded as decisions. *)
  let screened = Option.is_some tier0 in
  let estimate =
    match tier0 with
    | Some s -> Costmodel.make s
    | None -> fun _ -> open_estimate
  in
  let subtree_prune =
    match tier0 with Some s -> Costmodel.subtree_admissible s | None -> false
  in
  if tier0_only && not screened then
    invalid_arg "Engine.search: ~tier0_only requires ~tier0";
  let reject_counter cause =
    match metrics with
    | None -> ()
    | Some m ->
      List.iter
        (fun label ->
          Metrics.incr
            (Metrics.counter m ~labels:[ ("reason", label) ]
               "legality.rejections"))
        (cause_labels cause)
  in
  let cx = fresh_sctx () in
  let reject cand cause =
    reject_counter cause;
    if provenance then
      cx.rejections <- { candidate = cand; cause } :: cx.rejections
  in
  let decide cand (est : Costmodel.estimate) verdict =
    if provenance && screened then
      cx.decisions <-
        {
          candidate = cand;
          tier0_score = est.Costmodel.score;
          tier0_bound = est.Costmodel.bound;
          verdict;
        }
        :: cx.decisions
  in
  (* [domains] is deliberately NOT a span attribute: the span tree must be
     identical across domain counts (it lives in the [engine.domains]
     gauge and the stats record instead). *)
  Tracer.span tracer "engine.search"
    ~attrs:(fun () -> [ ("beam", Int beam); ("steps", Int steps) ])
  @@ fun () ->
  (* Anytime budget: consulted only at batch boundaries (step starts, and
     between a step's evaluation batches), never inside one, so a given
     cut point always yields the same incumbent — results are a
     deterministic function of the cut point, and a search that never
     trips a checkpoint is bit-identical to an unbudgeted one. Once set,
     [cx.cut] short-circuits every later checkpoint. *)
  let over_budget site =
    (match (cx.cut, budget) with
    | Some _, _ | _, None -> ()
    | None, Some b ->
      let timed_out =
        match b.deadline_s with
        | Some d -> Unix.gettimeofday () -. cx.t_start >= d
        | None -> false
      in
      let nodes_out =
        match b.max_nodes with Some n -> cx.explored >= n | None -> false
      in
      if timed_out || nodes_out then
        cx.cut <-
          Some (site ^ ":" ^ if timed_out then "deadline" else "nodes"));
    cx.cut <> None
  in
  (* One persistent process-wide pool, grown on demand, instead of forking
     domains per search: spawn cost rivals a whole small search. Purely
     sequential searches never touch it. *)
  let pool =
    if domains > 1 then Some (Pool.shared ~workers:(domains - 1) ()) else None
  in
  let pmap : 'a 'b. ('a -> 'b) -> 'a array -> 'b array =
   fun f input ->
    match pool with
    | None -> Array.map f input
    | Some p -> Pool.map_auto p f input
  in
  let vectors = Itf_dep.Analysis.vectors nest in
  let root =
    cx.explored <- cx.explored + 1;
    let _, root_key = Sequence.reduce_memo [] in
    let t_leg = Unix.gettimeofday () in
    let st = Framework.start ~vectors nest in
    let finished = Framework.finish st in
    cx.legality_time <- cx.legality_time +. (Unix.gettimeofday () -. t_leg);
    match finished with
    | Error _ -> None
    | Ok result ->
      if tier0_only then begin
        cx.tier0_evals <- cx.tier0_evals + 1;
        let t_est = Unix.gettimeofday () in
        let est = estimate result in
        cx.tier0_time <- cx.tier0_time +. (Unix.gettimeofday () -. t_est);
        Some
          {
            seq = [];
            canon = [];
            key = root_key;
            state = st;
            result;
            score = est.Costmodel.score;
          }
      end
      else begin
        cx.objective_evals <- cx.objective_evals + 1;
        let t_obj = Unix.gettimeofday () in
        let scored =
          score_with (fun () ->
              Tracer.span tracer "engine.objective"
                ~attrs:(fun () -> [ ("root", Bool true) ])
                (fun () ->
                  Tracer.with_ambient tracer (fun () -> objective result)))
        in
        cx.exact_time <- cx.exact_time +. (Unix.gettimeofday () -. t_obj);
        match scored with
        | Ok score ->
          Some
            { seq = []; canon = []; key = root_key; state = st; result; score }
        | Error _ -> None
      end
  in
  match root with
  | None -> None
  | Some root ->
    (* Cross-step memo keyed on the intern ids of canonical
       (peephole-reduced) sequences: [Scored] is a previously evaluated
       legal candidate, [Checked] one that only reached the tier-0
       screen, [Failed] a rejected one whose cause replays on every
       re-derived spelling. E.g. reversal twice reduces to [] and is
       answered by the root's entry without touching the framework. The
       cache is written exclusively by the merging thread (workers fill
       per-index result slots), so parallel runs stay bit-identical to
       sequential ones. *)
    let cache : entry KeyTbl.t = KeyTbl.create 256 in
    KeyTbl.add cache root.key (Scored root);
    (* Best exact score seen so far — the branch-and-bound incumbent. Only
       updated between steps, so every candidate of one step faces the
       same cutoff regardless of evaluation order. *)
    let incumbent = ref root.score in
    let bests = ref [ root ] in
    let frontier = ref [ root ] in
    for step = 1 to steps do
      if not (over_budget (Printf.sprintf "step%d" step)) then
        Tracer.span tracer "engine.step"
          ~attrs:(fun () -> [ ("step", Int step) ])
          (fun () ->
          let t0 = Unix.gettimeofday () in
          (* Expand: generate moves, canonicalize, dedupe within the
             step (first spelling wins), consult the cache. Sequential
             — cheap relative to evaluation, and keeps cache access
             single-domain. *)
          let hits, checked_hits, misses =
            Tracer.span tracer "engine.expand" (fun () ->
                let seen = KeyTbl.create 64 in
                let hits = ref [] in
                let checked_hits = ref [] in
                let misses = ref [] in
                List.iter
                  (fun parent ->
                    let depth = Nest.depth parent.result.Framework.nest in
                    List.iter
                      (fun t ->
                        let cand = parent.seq @ [ t ] in
                        let canon, key = Sequence.reduce_memo cand in
                        if KeyTbl.mem seen key then
                          cx.duplicates <- cx.duplicates + 1
                        else begin
                          KeyTbl.add seen key ();
                          cx.explored <- cx.explored + 1;
                          match KeyTbl.find_opt cache key with
                          | Some (Scored cached) ->
                            cx.legality_hits <- cx.legality_hits + 1;
                            cx.score_hits <- cx.score_hits + 1;
                            cx.saved <- cx.saved + List.length cand;
                            hits :=
                              { cached with seq = cand; canon; key } :: !hits
                          | Some (Checked c) ->
                            cx.legality_hits <- cx.legality_hits + 1;
                            cx.saved <- cx.saved + List.length cand;
                            checked_hits :=
                              { c with cseq = cand; ccanon = canon; ckey = key }
                              :: !checked_hits
                          | Some (Failed cause) ->
                            cx.legality_hits <- cx.legality_hits + 1;
                            cx.illegal <- cx.illegal + 1;
                            cx.saved <- cx.saved + List.length cand;
                            reject cand cause
                          | None ->
                            misses := (parent, t, cand, canon, key) :: !misses
                        end)
                      (Search.moves nest ~depth))
                  !frontier;
                ( List.rev !hits,
                  List.rev !checked_hits,
                  Array.of_list (List.rev !misses) ))
          in
          Tracer.add_attrs tracer
            [
              ("cache_hits", Int (List.length hits + List.length checked_hits));
              ("misses", Int (Array.length misses));
            ];
          let t1 = Unix.gettimeofday () in
          cx.expand_time <- cx.expand_time +. (t1 -. t0);
          (* Evaluate the cache misses across the domain pool in two
             batches: tier 0 (legality + the screen's estimate) for every
             miss, then the exact objective for the screen's survivors.
             The pool map preserves input order and each exact task
             records into its own forked tracer, joined back in input
             order — so both merges below and the span tree are
             deterministic. *)
          let fresh =
            if over_budget (Printf.sprintf "step%d.evaluate" step) then None
            else begin
              let results =
                Tracer.span tracer
                  (if screened then "engine.tier0" else "engine.legality")
                  ~attrs:(fun () ->
                    [ ("candidates", Int (Array.length misses)) ])
                  (fun () ->
                    pmap
                      (fun (parent, t, _, _, _) ->
                        evaluate_tier0 estimate (parent, t))
                      misses)
              in
              let pending = ref [] in
              Array.iteri
                (fun i (r, apps, leg_s, t0_s) ->
                  let _, _, cand, canon, key = misses.(i) in
                  cx.applications <- cx.applications + apps;
                  cx.saved <- cx.saved + max 0 (List.length cand - apps);
                  cx.legality_time <- cx.legality_time +. leg_s;
                  match r with
                  | Ok (st, result, est) ->
                    if screened then begin
                      cx.tier0_evals <- cx.tier0_evals + 1;
                      cx.tier0_time <- cx.tier0_time +. t0_s
                    end;
                    pending :=
                      {
                        cseq = cand;
                        ccanon = canon;
                        ckey = key;
                        cstate = st;
                        cresult = result;
                        cest = est;
                      }
                      :: !pending
                  | Error cause ->
                    cx.illegal <- cx.illegal + 1;
                    KeyTbl.replace cache key (Failed cause);
                    reject cand cause)
                results;
              if over_budget (Printf.sprintf "step%d.exact" step) then None
              else begin
              (* Screen, deterministically: sort every tier-0-estimated
                 candidate (fresh and cached alike) by the estimate order;
                 cut dominated subtrees with the admissible bound against
                 the incumbent; the top-K by estimate reach the exact
                 simulator. The [beam] structurally-smallest survivors of
                 the bound cut are forwarded too: the beam breaks exact-
                 score ties on the structural order, so those candidates
                 must hold exact scores — otherwise a screen full of
                 estimator favorites rekeys the whole frontier whenever
                 the exact objective ties (estimator noise), collapsing
                 the cross-step cache and inflating legality work on
                 bulky nests. Extra exact scores never change the winner:
                 they can only move the beam toward the untiered one. *)
              let ranked =
                List.sort order_checked (checked_hits @ List.rev !pending)
              in
              let bound_ok = ref [] in
              List.iter
                (fun c ->
                  if
                    subtree_prune && (not tier0_only)
                    && c.cest.Costmodel.bound > !incumbent
                  then begin
                    (* exact(c) and exact(every descendant) >= bound >
                       incumbent: neither can ever win. *)
                    cx.tier0_pruned <- cx.tier0_pruned + 1;
                    decide c.cseq c.cest Bound_pruned;
                    KeyTbl.replace cache c.ckey (Checked c)
                  end
                  else bound_ok := c :: !bound_ok)
                ranked;
              let bound_ok = List.rev !bound_ok in
              let smallest =
                if tier0_only then KeyTbl.create 1
                else begin
                  let tbl = KeyTbl.create 16 in
                  List.iteri
                    (fun k c -> if k < beam then KeyTbl.replace tbl c.ckey ())
                    (List.sort order_structural bound_ok);
                  tbl
                end
              in
              (* The top-K cut never splits an estimate tie class: tied
                 candidates are indistinguishable to the screen, so which
                 side of the cut they land on would be decided by the
                 structural tie-break alone — and the exact tier (which
                 the beam trusts) must see all of them or none. *)
              let survivors = ref [] and kept = ref 0 in
              let last_kept_est = ref Float.nan in
              List.iter
                (fun c ->
                  let est = c.cest.Costmodel.score in
                  if
                    tier0_only || !kept < exact_topk
                    || est = !last_kept_est
                    || KeyTbl.mem smallest c.ckey
                  then begin
                    incr kept;
                    if !kept <= exact_topk then last_kept_est := est;
                    decide c.cseq c.cest Survived;
                    survivors := c :: !survivors
                  end
                  else begin
                    cx.tier0_pruned <- cx.tier0_pruned + 1;
                    decide c.cseq c.cest Screened_out;
                    KeyTbl.replace cache c.ckey (Checked c)
                  end)
                bound_ok;
              let survivors = Array.of_list (List.rev !survivors) in
              (* Exact tier: simulate only the survivors. In tier0-only
                 mode the estimate itself is the score. *)
              let scored =
                if tier0_only then
                  Array.map
                    (fun c -> (c, Ok c.cest.Costmodel.score, 0.))
                    survivors
                else
                  Tracer.span tracer "engine.exact"
                    ~attrs:(fun () ->
                      [ ("survivors", Int (Array.length survivors)) ])
                    (fun () ->
                      let forks =
                        Array.map (fun _ -> Tracer.fork tracer) survivors
                      in
                      let tasks =
                        Array.mapi (fun i c -> (forks.(i), c)) survivors
                      in
                      let results =
                        pmap
                          (fun (tr, c) ->
                            Tracer.with_ambient tr (fun () ->
                                Tracer.span tr "engine.candidate"
                                  ~attrs:(fun () ->
                                    [
                                      ( "template",
                                        String
                                          (match List.rev c.cseq with
                                          | t :: _ -> Template.name t
                                          | [] -> "identity") );
                                    ])
                                  (fun () ->
                                    Tracer.span tr "engine.objective"
                                      (fun () ->
                                        let t_obj = Unix.gettimeofday () in
                                        let r =
                                          score_with (fun () ->
                                              objective c.cresult)
                                        in
                                        (r, Unix.gettimeofday () -. t_obj)))))
                          tasks
                      in
                      Tracer.join tracer (Array.to_list forks);
                      Array.map2
                        (fun c (r, obj_s) -> (c, r, obj_s))
                        survivors results)
              in
              let t2 = Unix.gettimeofday () in
              cx.evaluate_time <- cx.evaluate_time +. (t2 -. t1);
              let fresh = ref [] in
              Array.iter
                (fun (c, r, obj_s) ->
                  cx.exact_time <- cx.exact_time +. obj_s;
                  if not tier0_only then
                    cx.objective_evals <- cx.objective_evals + 1;
                  match r with
                  | Ok score ->
                    let node =
                      {
                        seq = c.cseq;
                        canon = c.ccanon;
                        key = c.ckey;
                        state = c.cstate;
                        result = c.cresult;
                        score;
                      }
                    in
                    KeyTbl.replace cache c.ckey (Scored node);
                    fresh := node :: !fresh
                  | Error cause ->
                    cx.illegal <- cx.illegal + 1;
                    KeyTbl.replace cache c.ckey (Failed cause);
                    reject c.cseq cause)
                scored;
              Some (List.rev !fresh)
              end
            end
          in
          match fresh with
          | None ->
            (* Budget cut mid-step: the whole partial step is abandoned —
               the frontier, incumbent and best-so-far list stay exactly
               as the last completed step left them, so the outcome is
               the same whichever batch the cut interrupted. *)
            ()
          | Some fresh ->
            let t2 = Unix.gettimeofday () in
            (* Merge: select the beam with the total order, advance the
               branch-and-bound incumbent. *)
            Tracer.span tracer "engine.merge" (fun () ->
                let top =
                  List.filteri
                    (fun k _ -> k < beam)
                    (List.sort order (hits @ fresh))
                in
                (match top with
                | best :: _ -> incumbent := Float.min !incumbent best.score
                | [] -> ());
                frontier := top;
                bests := top @ !bests);
            let t3 = Unix.gettimeofday () in
            cx.merge_time <- cx.merge_time +. (t3 -. t2))
    done;
    let winner = List.hd (List.sort order !bests) in
    let total = Unix.gettimeofday () -. cx.t_start in
    let stats =
      {
        Stats.nodes_explored = cx.explored;
        duplicates_pruned = cx.duplicates;
        legality_cache_hits = cx.legality_hits;
        score_cache_hits = cx.score_hits;
        illegal = cx.illegal;
        template_applications = cx.applications;
        template_applications_saved = cx.saved;
        objective_evaluations = cx.objective_evals;
        tier0_evaluations = cx.tier0_evals;
        tier0_pruned = cx.tier0_pruned;
        domains;
        work_threshold = (if domains > 1 then Pool.default_threshold else 0);
        expand_time_s = cx.expand_time;
        evaluate_time_s = cx.evaluate_time;
        legality_time_s = cx.legality_time;
        tier0_time_s = cx.tier0_time;
        exact_time_s = cx.exact_time;
        merge_time_s = cx.merge_time;
        total_time_s = total;
      }
    in
    Option.iter (fun m -> Stats.record m stats) metrics;
    Option.iter
      (fun m ->
        Metrics.set
          (Metrics.gauge m "engine.cache.size")
          (float (KeyTbl.length cache)))
      metrics;
    (* Intern/memo table health, one gauge triple per table, labeled by
       table name. Gauges are absolute process-wide values (last write
       wins), so repeated searches just refresh them. *)
    Option.iter
      (fun m ->
        List.iter
          (fun s ->
            let labels = [ ("table", s.Itf_mat.Hashcons.name) ] in
            Metrics.set
              (Metrics.gauge m ~labels "intern.size")
              (float s.Itf_mat.Hashcons.size);
            Metrics.set
              (Metrics.gauge m ~labels "intern.hits")
              (float s.Itf_mat.Hashcons.hits);
            Metrics.set
              (Metrics.gauge m ~labels "intern.misses")
              (float s.Itf_mat.Hashcons.misses);
            Metrics.set
              (Metrics.gauge m ~labels "intern.evictions")
              (float s.Itf_mat.Hashcons.evictions))
          (Itf_mat.Hashcons.stats ()))
      metrics;
    Some
      {
        sequence = winner.seq;
        canonical = winner.canon;
        result = winner.result;
        score = winner.score;
        stats;
        completion =
          (match cx.cut with
          | None -> Complete
          | Some site -> Degraded { cut = site });
        rejections = List.rev cx.rejections;
        decisions = List.rev cx.decisions;
      }
