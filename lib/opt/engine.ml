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
   [order_by] below stays structural, so winners are independent of
   intern-table history. *)
module KeyTbl = Hashtbl.Make (Itf_mat.Hashcons.Int_key)

(* A legality-checked candidate, carried with its exact score ([float
   cand]: a frontier node) or with its tier-0 estimate ([Costmodel.estimate
   cand]: a candidate on its way to the exact tier, or screened out of
   it). [state] is the resumable prefix — possibly the state of [canon]
   rather than [seq] when the candidate was served from cache; the two
   generate the same nest, so extensions agree. [result] is [state]'s
   result, and its derivation id keys the legality memo below. *)
type 'v cand = {
  seq : Sequence.t;
  canon : Sequence.t;
  key : int;
  state : Framework.state;
  result : Framework.result;
  value : 'v;
}

(* Cross-step memo entries, keyed on canonical sequences. A [Checked]
   entry lets a re-derived spelling skip legality AND tier-0 work. *)
type entry =
  | Scored of float cand
  | Checked of Costmodel.estimate cand
  | Failed of cause

(* The structural part of the candidate order: what the beam falls back
   to when scores tie. *)
let order_structural a b =
  let c = Sequence.compare a.canon b.canon in
  if c <> 0 then c else Sequence.compare a.seq b.seq

(* Total order on candidates: (score, canonical sequence, raw sequence),
   with [score] reading the exact score or the estimate. Beam cut-offs
   and the final winner are therefore independent of generation order
   and of domain scheduling. *)
let order_by score a b =
  let c = Float.compare (score a.value) (score b.value) in
  if c <> 0 then c else order_structural a b

let now = Unix.gettimeofday

(* Process-wide legality memo. Extending a prefix state by one template
   and running the final dependence test is a pure function of the root
   nest, its vectors and the raw template sequence the extended state
   ends up holding (paper §5: a transformation is a value independent of
   any nest). The parent state's derivation id names the first three
   ({!Framework.result}), so the key is [[parent derivation id; t's
   template id]] — the raw sequence of the parent's state, not the
   candidate's spelling: a cross-step cache hit can carry another
   spelling's state. The root itself is keyed [[root nest id]]. Every
   key of one length is fixed-shape, so distinct keys never flatten to
   one int list.

   A value is the verdict (state and result, or the rejection cause)
   plus the template applications the miss performed. A hit replays
   that count, so [template_applications] and everything derived from it
   read the same warm or cold — the convention memoized objective
   evaluations already follow. The result carries its derivation id, so
   a hit's tier-0 and objective memo keys cost no walk at all.

   The cap is a constant: 4096 entries hold the whole warm set of a
   daemon's hot queries (the 24 shapes of the serve benchmark need 886
   at steps 2 and 2,173 at steps 3, no shard past 75% of its slice)
   while bounding what a stream of novel nests can pin; a
   shard past its slice is flushed whole (see {!Itf_mat.Hashcons.Memo}).
   The root's key is its nest id, which is never reused either. *)
module LMemo = Itf_mat.Hashcons.Memo (Itf_mat.Hashcons.Ints_key)

type legality = {
  verdict : (Framework.state * Framework.result, cause) result;
  apps : int;
}

let legality_cap = 4096

let legality_memo : legality LMemo.t =
  LMemo.create ~max_size:legality_cap "opt.legality"

(* The final dependence test of a legal prefix, packaged as a memo
   value. *)
let settle st =
  match Framework.finish st with
  | Error v -> Error (Rejected (Legality.reasons v))
  | Ok result -> Ok (st, result)

(* Legality of one candidate: extend the parent prefix by one template and
   run the final dependence test, through the memo. *)
let check_legal parent t =
  LMemo.find_or_add legality_memo
    [ parent.result.Framework.derivation; snd (Template.intern_id t) ]
    (fun () ->
      let count = ref 0 in
      let verdict =
        match Framework.extend ~count parent.state t with
        | Error v -> Error (Rejected (Legality.reasons v))
        | Ok st -> settle st
      in
      { verdict; apps = !count })

(* An exact score, or [Unscoreable] when the objective returns NaN or
   raises. *)
let score_with f =
  match f () with
  | s when Float.is_nan s -> Error Unscoreable
  | s -> Ok s
  | exception _ -> Error Unscoreable

(* Tier-0 evaluation of one cache miss: legality, then the screen's
   estimate — no simulation. Runs on worker domains: the only shared
   state it touches is the domain-safe memos, and the coordinator merges
   the result in input order. The two trailing floats are the
   candidate's legality and estimate durations, folded into the
   per-phase breakdown. *)
let evaluate_tier0 estimate (parent, t, seq, canon, key) =
  let t_start = now () in
  let { verdict; apps } = check_legal parent t in
  let t_leg = now () in
  match verdict with
  | Error cause -> (Error cause, apps, t_leg -. t_start, 0.)
  | Ok (state, result) ->
    let value = estimate result in
    ( Ok { seq; canon; key; state; result; value },
      apps,
      t_leg -. t_start,
      now () -. t_leg )

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
  (* Without [tier0] the screen is open: its estimates are neither
     counted, timed nor recorded as decisions. *)
  let screened = Option.is_some tier0 in
  let estimate, subtree_prune =
    match tier0 with
    | Some s -> (Costmodel.make s, Costmodel.subtree_admissible s)
    | None -> ((fun _ -> open_estimate), false)
  in
  if tier0_only && not screened then
    invalid_arg "Engine.search: ~tier0_only requires ~tier0";
  (* Per-search mutable state: the counters, the first tripped budget
     checkpoint and the provenance lists (newest first). It lives in this
     call and never escapes it but through the outcome: the engine's only
     module-level mutable state is the sharded legality memo, so any
     number of searches may run concurrently (one per serve worker). The
     shared structures a search reaches — the intern tables, the
     legality/objective/canonicalization memos, the metrics registry, the
     domain pool — are each concurrency-safe on their own terms (sharded
     tables, atomic instruments; DESIGN.md §13). The cross-step candidate
     cache is per-search too: concurrent requests share warm state
     through the process-wide memos, never through engine internals. *)
  let t_start = now () in
  let st = Stats.create () in
  let cut = ref None and rejections = ref [] and decisions = ref [] in
  (* Cross-step memo keyed on the intern ids of canonical
     (peephole-reduced) sequences: [Scored] is a previously evaluated
     legal candidate, [Checked] one that only reached the tier-0 screen,
     [Failed] a rejected one whose cause replays on every re-derived
     spelling. E.g. reversal twice reduces to [] and is answered by the
     root's entry without touching the framework. The cache is written
     exclusively by the merging thread (workers fill per-index result
     slots), so parallel runs stay bit-identical to sequential ones. *)
  let cache : entry KeyTbl.t = KeyTbl.create 256 in
  let reject seq cause =
    Option.iter
      (fun m ->
        List.iter
          (fun label ->
            Metrics.incr
              (Metrics.counter m ~labels:[ ("reason", label) ]
                 "legality.rejections"))
          (cause_labels cause))
      metrics;
    if provenance then rejections := { candidate = seq; cause } :: !rejections
  in
  let fail key seq cause =
    st.illegal <- st.illegal + 1;
    KeyTbl.replace cache key (Failed cause);
    reject seq cause
  in
  let decide c verdict =
    let { Costmodel.score = tier0_score; bound = tier0_bound } = c.value in
    if provenance && screened then
      decisions :=
        { candidate = c.seq; tier0_score; tier0_bound; verdict } :: !decisions
  in
  let screen_out c verdict =
    st.tier0_pruned <- st.tier0_pruned + 1;
    decide c verdict;
    KeyTbl.replace cache c.key (Checked c)
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
     [cut] short-circuits every later checkpoint. *)
  let over_budget site =
    (match (!cut, budget) with
    | None, Some { deadline_s = Some d; _ } when now () -. t_start >= d ->
      cut := Some (site ^ ":deadline")
    | None, Some { max_nodes = Some n; _ } when st.nodes_explored >= n ->
      cut := Some (site ^ ":nodes")
    | _ -> ());
    !cut <> None
  in
  (* One persistent process-wide pool, grown on demand, instead of forking
     domains per search: spawn cost rivals a whole small search. Purely
     sequential searches never touch it. *)
  let pool =
    if domains > 1 then Some (Pool.shared ~workers:(domains - 1) ()) else None
  in
  let pmap f input =
    match pool with
    | None -> Array.map f input
    | Some p -> Pool.map_auto p f input
  in
  (* The exact objective of one candidate, under its [engine.objective]
     span; the simulators attach below it through the ambient tracer. *)
  let exact ?attrs tr result =
    Tracer.span tr ?attrs "engine.objective" (fun () ->
        let t0 = now () in
        let r =
          score_with (fun () ->
              Tracer.with_ambient tr (fun () -> objective result))
        in
        (r, now () -. t0))
  in
  (* Scoring, decided once. Normally the exact objective scores the root
     and the screen's survivors; a beam member must carry a score, so the
     exact tier never takes fewer than [beam] candidates, and admissible
     bounds prune. With [tier0_only] the estimate is the score: the root
     is estimated like any candidate, and the screen neither prunes nor
     cuts — every legal candidate survives it. *)
  let score_root, score_survivors, exact_topk, bound_prune =
    if tier0_only then
      ( (fun result ->
          let t0 = now () in
          let e = estimate result in
          st.tier0_evaluations <- st.tier0_evaluations + 1;
          st.tier0_time_s <- st.tier0_time_s +. (now () -. t0);
          Ok e.Costmodel.score),
        Array.map (fun c -> (c, Ok c.value.Costmodel.score, 0.)),
        max_int,
        false )
    else
      ( (fun result ->
          st.objective_evaluations <- st.objective_evaluations + 1;
          let r, t =
            exact ~attrs:(fun () -> [ ("root", Bool true) ]) tracer result
          in
          st.exact_time_s <- st.exact_time_s +. t;
          r),
        (fun survivors ->
          st.objective_evaluations <-
            st.objective_evaluations + Array.length survivors;
          (* Each task records into its own forked tracer, joined back in
             input order, so the span tree is deterministic. *)
          Tracer.span tracer "engine.exact"
            ~attrs:(fun () -> [ ("survivors", Int (Array.length survivors)) ])
            (fun () ->
              let tasks =
                Array.map (fun c -> (Tracer.fork tracer, c)) survivors
              in
              let results =
                pmap
                  (fun (tr, c) ->
                    Tracer.span tr "engine.candidate"
                      ~attrs:(fun () ->
                        [
                          ( "template",
                            String
                              (match List.rev c.seq with
                              | t :: _ -> Template.name t
                              | [] -> "identity") );
                        ])
                      (fun () ->
                        let r, t = exact tr c.result in
                        (c, r, t)))
                  tasks
              in
              Tracer.join tracer (Array.to_list (Array.map fst tasks));
              results)),
        max beam exact_topk,
        subtree_prune )
  in
  let root =
    st.nodes_explored <- 1;
    let _, key = Sequence.reduce_memo [] in
    let t_leg = now () in
    let { verdict; _ } =
      LMemo.find_or_add legality_memo [ Intern.nest_id nest ] (fun () ->
          { verdict = settle (Framework.start nest); apps = 0 })
    in
    st.legality_time_s <- now () -. t_leg;
    match verdict with
    | Error _ -> None
    | Ok (state, result) -> (
      match score_root result with
      | Ok value -> Some { seq = []; canon = []; key; state; result; value }
      | Error _ -> None)
  in
  match root with
  | None -> None
  | Some root ->
    KeyTbl.add cache root.key (Scored root);
    (* Best exact score seen so far — the branch-and-bound incumbent. Only
       updated between steps, so every candidate of one step faces the
       same cutoff regardless of evaluation order. *)
    let incumbent = ref root.value in
    let bests = ref [ root ] in
    let frontier = ref [ root ] in
    (* A tripped budget checkpoint abandons the whole partial step: the
       frontier, incumbent and best-so-far list stay exactly as the last
       completed step left them, so the outcome is the same whichever
       batch the cut interrupted. *)
    let exception Cut in
    let checkpoint site = if over_budget site then raise Cut in
    for step = 1 to steps do
      try
        checkpoint (Printf.sprintf "step%d" step);
        Tracer.span tracer "engine.step"
          ~attrs:(fun () -> [ ("step", Int step) ])
        @@ fun () ->
        let t0 = now () in
        (* Expand: generate moves, canonicalize, dedupe within the step
           (first spelling wins), consult the cache. Sequential — cheap
           relative to evaluation, and keeps cache access single-domain. *)
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
                      let seq = parent.seq @ [ t ] in
                      let canon, key = Sequence.reduce_memo seq in
                      if KeyTbl.mem seen key then
                        st.duplicates_pruned <- st.duplicates_pruned + 1
                      else begin
                        KeyTbl.add seen key ();
                        st.nodes_explored <- st.nodes_explored + 1;
                        match KeyTbl.find_opt cache key with
                        | None ->
                          misses := (parent, t, seq, canon, key) :: !misses
                        | Some entry -> (
                          st.legality_cache_hits <- st.legality_cache_hits + 1;
                          st.template_applications_saved <-
                            st.template_applications_saved + List.length seq;
                          match entry with
                          | Scored c ->
                            st.score_cache_hits <- st.score_cache_hits + 1;
                            hits := { c with seq; canon; key } :: !hits
                          | Checked c ->
                            checked_hits :=
                              { c with seq; canon; key } :: !checked_hits
                          | Failed cause ->
                            st.illegal <- st.illegal + 1;
                            reject seq cause)
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
        let t1 = now () in
        st.expand_time_s <- st.expand_time_s +. (t1 -. t0);
        (* Evaluate the cache misses across the domain pool in two
           batches: tier 0 (legality + the screen's estimate) for every
           miss, then scoring for the screen's survivors. The pool map
           preserves input order, so both merges below are
           deterministic. *)
        checkpoint (Printf.sprintf "step%d.evaluate" step);
        let results =
          Tracer.span tracer
            (if screened then "engine.tier0" else "engine.legality")
            ~attrs:(fun () -> [ ("candidates", Int (Array.length misses)) ])
            (fun () -> pmap (evaluate_tier0 estimate) misses)
        in
        let pending = ref [] in
        Array.iteri
          (fun i (r, apps, leg_s, t0_s) ->
            let _, _, seq, _, key = misses.(i) in
            st.template_applications <- st.template_applications + apps;
            st.template_applications_saved <-
              st.template_applications_saved + max 0 (List.length seq - apps);
            st.legality_time_s <- st.legality_time_s +. leg_s;
            match r with
            | Ok c ->
              if screened then begin
                st.tier0_evaluations <- st.tier0_evaluations + 1;
                st.tier0_time_s <- st.tier0_time_s +. t0_s
              end;
              pending := c :: !pending
            | Error cause -> fail key seq cause)
          results;
        checkpoint (Printf.sprintf "step%d.exact" step);
        (* Screen, deterministically: sort every tier-0-estimated candidate
           (fresh and cached alike) by the estimate order; cut dominated
           subtrees with the admissible bound against the incumbent; the
           top-K by estimate reach the exact tier. The [beam]
           structurally-smallest survivors of the bound cut are forwarded
           too: the beam breaks exact-score ties on the structural order,
           so those candidates must hold exact scores — otherwise a screen
           full of estimator favorites rekeys the whole frontier whenever
           the exact objective ties (estimator noise), collapsing the
           cross-step cache and inflating legality work on bulky nests.
           Extra exact scores never change the winner: they can only move
           the beam toward the untiered one. *)
        let pruned, bound_ok =
          List.partition
            (fun c ->
              (* exact(c) and exact(every descendant) >= bound >
                 incumbent: neither can ever win. *)
              bound_prune && c.value.Costmodel.bound > !incumbent)
            (List.sort
               (order_by (fun e -> e.Costmodel.score))
               (checked_hits @ List.rev !pending))
        in
        List.iter (fun c -> screen_out c Bound_pruned) pruned;
        let smallest =
          lazy
            (let tbl = KeyTbl.create 16 in
             List.iteri
               (fun k c -> if k < beam then KeyTbl.replace tbl c.key ())
               (List.sort order_structural bound_ok);
             tbl)
        in
        (* The top-K cut never splits an estimate tie class: tied
           candidates are indistinguishable to the screen, so which side
           of the cut they land on would be decided by the structural
           tie-break alone — and the exact tier (which the beam trusts)
           must see all of them or none. *)
        let survivors = ref [] and kept = ref 0 in
        let last_kept_est = ref Float.nan in
        List.iter
          (fun c ->
            let est = c.value.Costmodel.score in
            if
              !kept < exact_topk || est = !last_kept_est
              || KeyTbl.mem (Lazy.force smallest) c.key
            then begin
              incr kept;
              if !kept <= exact_topk then last_kept_est := est;
              decide c Survived;
              survivors := c :: !survivors
            end
            else screen_out c Screened_out)
          bound_ok;
        let scored = score_survivors (Array.of_list (List.rev !survivors)) in
        let t2 = now () in
        st.evaluate_time_s <- st.evaluate_time_s +. (t2 -. t1);
        let fresh = ref [] in
        Array.iter
          (fun (c, r, obj_s) ->
            st.exact_time_s <- st.exact_time_s +. obj_s;
            match r with
            | Ok score ->
              let node = { c with value = score } in
              KeyTbl.replace cache c.key (Scored node);
              fresh := node :: !fresh
            | Error cause -> fail c.key c.seq cause)
          scored;
        (* Merge: select the beam with the total order, advance the
           branch-and-bound incumbent. *)
        Tracer.span tracer "engine.merge" (fun () ->
            let top =
              List.filteri
                (fun k _ -> k < beam)
                (List.sort (order_by Fun.id) (hits @ List.rev !fresh))
            in
            (match top with
            | best :: _ -> incumbent := Float.min !incumbent best.value
            | [] -> ());
            frontier := top;
            bests := top @ !bests);
        st.merge_time_s <- st.merge_time_s +. (now () -. t2)
      with Cut -> ()
    done;
    let winner = List.hd (List.sort (order_by Fun.id) !bests) in
    st.domains <- domains;
    st.work_threshold <- (if domains > 1 then Pool.default_threshold else 0);
    st.total_time_s <- now () -. t_start;
    Option.iter
      (fun m ->
        Stats.record m st;
        Metrics.set
          (Metrics.gauge m "engine.cache.size")
          (float (KeyTbl.length cache));
        (* Intern/memo table health, one gauge triple per table, labeled
           by table name. Gauges are absolute process-wide values (last
           write wins), so repeated searches just refresh them. *)
        List.iter
          (fun { Itf_mat.Hashcons.name; size; hits; misses; evictions } ->
            List.iter
              (fun (gauge, v) ->
                Metrics.set
                  (Metrics.gauge m ~labels:[ ("table", name) ] gauge)
                  (float v))
              [
                ("intern.size", size);
                ("intern.hits", hits);
                ("intern.misses", misses);
                ("intern.evictions", evictions);
              ])
          (Itf_mat.Hashcons.stats ()))
      metrics;
    Some
      {
        sequence = winner.seq;
        canonical = winner.canon;
        result = winner.result;
        score = winner.value;
        stats = st;
        completion =
          (match !cut with
          | None -> Complete
          | Some site -> Degraded { cut = site });
        rejections = List.rev !rejections;
        decisions = List.rev !decisions;
      }
