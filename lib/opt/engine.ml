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
   id from {!Sequence.reduce_id}: hashing and equality are single
   integer operations. Ids are used for {e equality only}, never ordering:
   the candidate orders below stay structural, so winners are independent of
   intern-table history. *)
module KeyTbl = Hashtbl.Make (Itf_mat.Hashcons.Int_key)

(* A legality-checked candidate, carried with its exact score ([float
   cand]: a frontier node) or with its tier-0 estimate ([Costmodel.estimate
   cand]: a candidate on its way to the exact tier, or screened out of
   it). [sid] is [seq]'s intern id. [state] is the resumable prefix —
   possibly the state of [canon] rather than [seq] when the candidate
   was served from cache; the two generate the same nest, so extensions
   agree. [result] is [state]'s result; the state's derivation id keys
   its children's legality verdicts. *)
type 'v cand = {
  seq : Sequence.t;
  sid : int;
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

(* Total orders on candidates: (score, canonical sequence, raw
   sequence), with the score read from the exact score or from the
   estimate. Beam cut-offs and the final winner are therefore
   independent of generation order and of domain scheduling. *)
let order_scored (a : float cand) b =
  let c = Float.compare a.value b.value in
  if c <> 0 then c else order_structural a b

let order_estimated (a : Costmodel.estimate cand) b =
  let c = Float.compare a.value.Costmodel.score b.value.Costmodel.score in
  if c <> 0 then c else order_structural a b

let now = Unix.gettimeofday

(* An exact score, or [Unscoreable] when the objective returns NaN or
   raises. *)
let score_with f =
  match f () with
  | s when Float.is_nan s -> Error Unscoreable
  | s -> Ok s
  | exception _ -> Error Unscoreable

(* A parent's expansion: everything about its children that does not
   depend on the search expanding it (paper §5: a transformation is a
   value independent of any nest). Child [i] appends move [i] of the
   move set to the parent's raw spelling; [cseq]/[csid] is the child's
   spelling and [ccanon]/[ckey] its reduction, each with its intern id.
   [entries] holds the children's [core.derivation] entries once their
   legality has been asked for, weakly, so an expansion never keeps an
   evicted entry alive (a first expansion, which is not kept, holds
   none); [estimates] holds their tier-0 estimates under
   [spec], filled the same way. Worker domains fill both without a
   lock; racing fills store equal values (an entry named by the same
   key, or an estimate of the same result), and a reader sees a slot
   empty or filled, never torn.

   An expansion is an annex of the parent state, so it is found without
   a probe and evicted with the parent's entry. It is kept from the
   parent's second expansion on: novel traffic expands every parent
   once, and keeping those expansions too raised a cold stream's peak
   heap by 8%, so the first expansion only leaves a marker. Its key is
   everything it depends on: the state names the parent's derivation;
   the parent's raw spelling ([parent_sid]) is read by canonicalization,
   and a cross-step cache hit carries another spelling's state; [moves]
   names the move set and [spec] the tier-0 fingerprint ([[]] for the
   open screen). Expansions of one parent under several specs share
   their children and entries. *)
type child = {
  move : Template.t * int;
  cseq : Sequence.t;
  csid : int;
  ccanon : Sequence.t;
  ckey : int;
}

type expansion = {
  parent_sid : int;
  moves : int;
  spec : int list;
  children : child array;
  entries : Framework.entry Weak.t option;
  estimates : Costmodel.estimate option array;
}

type Framework.annex += Expansion of expansion | Expanded_once

let expansion ~spec parent =
  let set = Search.move_set ~depth:(Nest.depth parent.result.Framework.nest) in
  let of_parent = function
    | Expansion x when x.parent_sid = parent.sid && x.moves = set.id -> Some x
    | _ -> None
  in
  Framework.annex parent.state
    (fun a ->
      match of_parent a with
      | Some x when x.spec = spec -> Some x
      | _ -> None)
    (fun annexes ->
      let keep = annexes <> [] in
      let x =
        match List.find_map of_parent annexes with
        | Some sibling ->
          {
            sibling with
            spec;
            estimates = Array.make (Array.length sibling.children) None;
          }
        | None ->
          let children =
            Array.map
              (fun move ->
                let cseq, csid =
                  Sequence.extend_id (parent.seq, parent.sid) move
                in
                let ccanon, ckey = Sequence.reduce_id (cseq, csid) in
                { move; cseq; csid; ccanon; ckey })
              set.Search.moves
          in
          let n = Array.length children in
          {
            parent_sid = parent.sid;
            moves = set.Search.id;
            spec;
            children;
            (* A weak array lives in the major heap from birth, so a
               first expansion, which is dropped, goes without. *)
            entries = (if keep then Some (Weak.create n) else None);
            estimates = Array.make n None;
          }
      in
      (x, if keep then Expansion x else Expanded_once))

(* The shared-work counts of one search's misses, written from worker
   domains: families built by the legality verdicts it computed, and
   reference forms its tier-0 estimates inherited from a parent or
   computed. Only the miss path touches them, so a warm candidate
   allocates nothing for them. *)
type tally = {
  families : int Atomic.t;
  inherited : int Atomic.t;
  computed : int Atomic.t;
}

(* A candidate's reference forms, for its tier-0 estimate. *)
let references tally state result () =
  let refs, how = Framework.references state result in
  (match how with
  | Legality.Inherited -> Atomic.incr tally.inherited
  | Legality.Computed -> Atomic.incr tally.computed
  | Legality.Stored -> ());
  refs

(* Tier-0 evaluation of child [i] of [parent]'s expansion [x], a cache
   miss: legality, then the screen's estimate — no simulation. Legality
   is extending the parent prefix by one template and running the final
   dependence test, answered from the child's entry in [core.derivation]
   ({!Framework.check_child}), which the expansion keeps once probed.
   The entry is keyed on the parent state's derivation id, which names
   the raw sequence that state holds, not the candidate's spelling. The
   estimate comes from the expansion too, computed on its first use.
   Runs on worker domains: the only shared state it touches is the
   domain-safe tables, the expansion's write-once slots and [tally],
   and the coordinator merges the result in input order. The trailing
   float is the time spent computing the child's legality verdict, 0
   when the entry already held it: only a computed verdict reads the
   clock, so a warm candidate reads none. *)
let evaluate_tier0 tally estimate (parent, x, i) =
  let ch = x.children.(i) in
  let probe () = Framework.child_entry parent.state (snd ch.move) in
  let entry =
    match x.entries with
    | None -> probe ()
    | Some w -> (
      match Weak.get w i with
      | Some e -> e
      | None ->
        let e = probe () in
        Weak.set w i (Some e);
        e)
  in
  let { Framework.outcome; apps }, legality_s =
    match Framework.stored entry with
    | Some c -> (c, 0.)
    | None ->
      let t0 = now () in
      let built = ref 0 in
      let c =
        Framework.check_child ~built parent.state (fst ch.move) entry
      in
      ignore (Atomic.fetch_and_add tally.families !built);
      (c, now () -. t0)
  in
  match outcome with
  | Error v -> (Error (Rejected (Legality.reasons v)), apps, legality_s)
  | Ok (state, result) ->
    let value =
      match x.estimates.(i) with
      | Some e -> e
      | None ->
        let e = estimate (references tally state result) result in
        x.estimates.(i) <- Some e;
        e
    in
    ( Ok
        {
          seq = ch.cseq;
          sid = ch.csid;
          canon = ch.ccanon;
          key = ch.ckey;
          state;
          result;
          value;
        },
      apps,
      legality_s )

(* The [k] smallest of [l] under [order] (a strict order on [l]): a
   selection, not a sort. [acc] holds the [n] smallest so far, largest
   first, so most elements cost one comparison with its head. *)
let smallest k order l =
  let rec insert c = function
    | x :: rest when order c x < 0 -> x :: insert c rest
    | rest -> c :: rest
  in
  let acc = ref [] and n = ref 0 in
  List.iter
    (fun c ->
      if !n < k then begin
        acc := insert c !acc;
        incr n
      end
      else
        match !acc with
        | x :: rest when order c x < 0 -> acc := insert c rest
        | _ -> ())
    l;
  !acc

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
  (* One estimator per search: it keeps the root's array layout. *)
  let estimate, spec, subtree_prune =
    match tier0 with
    | Some s ->
      let estimate = Costmodel.estimate s in
      ( (fun refs result -> estimate ~refs result),
        Costmodel.fingerprint s,
        Costmodel.subtree_admissible s )
    | None -> ((fun _ _ -> open_estimate), [], false)
  in
  if tier0_only && not screened then
    invalid_arg "Engine.search: ~tier0_only requires ~tier0";
  (* Per-search mutable state: the counters, the first tripped budget
     checkpoint and the provenance lists (newest first). It lives in this
     call and never escapes it but through the outcome: the engine has no
     module-level mutable state, so any number of searches may run
     concurrently (one per serve worker). The shared structures a search
     reaches — the intern tables, the legality verdicts of
     [core.derivation], the objective/canonicalization memos, the
     metrics registry, the domain pool — are each concurrency-safe on
     their own terms (sharded tables, atomic instruments; DESIGN.md
     §13). The cross-step candidate cache is per-search too: concurrent
     requests share warm state through the process-wide tables, never
     through engine internals. *)
  let t_start = now () in
  let st = Stats.create () in
  let tally =
    { families = Atomic.make 0; inherited = Atomic.make 0; computed = Atomic.make 0 }
  in
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
  (* The [legality.rejections{reason}] counters this search has used,
     each looked up in the registry on its reason's first rejection. *)
  let rejection_counters = ref [] in
  let rejection_counter m label =
    match List.assoc_opt label !rejection_counters with
    | Some c -> c
    | None ->
      let c =
        Metrics.counter m ~labels:[ ("reason", label) ] "legality.rejections"
      in
      rejection_counters := (label, c) :: !rejection_counters;
      c
  in
  let reject seq cause =
    Option.iter
      (fun m ->
        List.iter
          (fun label -> Metrics.incr (rejection_counter m label))
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
  (* The tier-0 batch beyond the legality verdicts it computed (verdicts
     and estimates read back, estimates computed, folding the results
     in) and the screen: tier-0 work, or legality bookkeeping when the
     screen is open. *)
  let credit_rest dt =
    if screened then st.tier0_time_s <- st.tier0_time_s +. dt
    else st.legality_time_s <- st.legality_time_s +. dt
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
  let over_budget step site =
    let name why = Some (Printf.sprintf "step%d%s:%s" step site why) in
    (match (!cut, budget) with
    | None, Some { deadline_s = Some d; _ } when now () -. t_start >= d ->
      cut := name "deadline"
    | None, Some { max_nodes = Some n; _ } when st.nodes_explored >= n ->
      cut := name "nodes"
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
     span; the simulators attach below it through the ambient tracer.
     The caller times it: the root alone, a step's survivors as one
     batch. *)
  let exact ?attrs tr result =
    Tracer.span tr ?attrs "engine.objective" (fun () ->
        score_with (fun () ->
            Tracer.with_ambient tr (fun () -> objective result)))
  in
  (* Scoring, decided once. Normally the exact objective scores the root
     and the screen's survivors; a beam member must carry a score, so the
     exact tier never takes fewer than [beam] candidates, and admissible
     bounds prune. With [tier0_only] the estimate is the score: the root
     is estimated like any candidate, and the screen neither prunes nor
     cuts — every legal candidate survives it. *)
  let score_root, score_survivors, exact_topk, bound_prune =
    if tier0_only then
      ( (fun state result ->
          let t0 = now () in
          let e = estimate (references tally state result) result in
          st.tier0_evaluations <- st.tier0_evaluations + 1;
          st.tier0_time_s <- st.tier0_time_s +. (now () -. t0);
          Ok e.Costmodel.score),
        Array.map (fun c -> (c, Ok c.value.Costmodel.score)),
        max_int,
        false )
    else
      ( (fun _ result ->
          st.objective_evaluations <- st.objective_evaluations + 1;
          let t0 = now () in
          let r =
            exact ~attrs:(fun () -> [ ("root", Bool true) ]) tracer result
          in
          st.exact_time_s <- st.exact_time_s +. (now () -. t0);
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
                      (fun () -> (c, exact tr c.result)))
                  tasks
              in
              Tracer.join tracer (Array.to_list (Array.map fst tasks));
              results)),
        max beam exact_topk,
        subtree_prune )
  in
  let root =
    st.nodes_explored <- 1;
    let seq, sid = Sequence.intern_id [] in
    let canon, key = Sequence.reduce_id (seq, sid) in
    let t_leg = now () in
    (* The search's set-up and the root's spelling are its expansion. *)
    st.expand_time_s <- t_leg -. t_start;
    (* The root's dependence analysis under its own span; on a new nest
       it is the Fourier–Motzkin refinement that costs. *)
    let fm_calls = ref 0 in
    let vectors =
      Tracer.span tracer "dep.vectors" (fun () ->
          Itf_dep.Analysis.vectors ~fm_calls nest)
    in
    Option.iter
      (fun m -> Metrics.add (Metrics.counter m "dep.fm_calls") !fm_calls)
      metrics;
    let { Framework.outcome; _ } = Framework.check_root ~vectors nest in
    st.legality_time_s <- now () -. t_leg;
    match outcome with
    | Error _ -> None
    | Ok (state, result) -> (
      match score_root state result with
      | Ok value -> Some { seq; sid; canon; key; state; result; value }
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
    let checkpoint step site = if over_budget step site then raise Cut in
    for step = 1 to steps do
      try
        let t0 = now () in
        checkpoint step "";
        Tracer.span tracer "engine.step"
          ~attrs:(fun () -> [ ("step", Int step) ])
        @@ fun () ->
        (* Expand: each parent's children come from its expansion (built
           on the parent's first expansion under this spec, then read
           back); dedupe within the step (first spelling wins), consult
           the cache. Sequential — cheap relative to evaluation, and
           keeps cache access single-domain. *)
        let hits, checked_hits, misses =
          Tracer.span tracer "engine.expand" (fun () ->
              let seen = KeyTbl.create 64 in
              let hits = ref [] in
              let checked_hits = ref [] in
              let misses = ref [] in
              List.iter
                (fun parent ->
                  let x = expansion ~spec parent in
                  Array.iteri
                    (fun i { cseq = seq; csid = sid; ccanon = canon; ckey = key; _ } ->
                      if KeyTbl.mem seen key then
                        st.duplicates_pruned <- st.duplicates_pruned + 1
                      else begin
                        KeyTbl.add seen key ();
                        st.nodes_explored <- st.nodes_explored + 1;
                        match KeyTbl.find_opt cache key with
                        | None -> misses := (parent, x, i) :: !misses
                        | Some entry -> (
                          st.legality_cache_hits <- st.legality_cache_hits + 1;
                          st.template_applications_saved <-
                            st.template_applications_saved + List.length seq;
                          match entry with
                          | Scored c ->
                            st.score_cache_hits <- st.score_cache_hits + 1;
                            hits := { c with seq; sid; canon; key } :: !hits
                          | Checked c ->
                            checked_hits :=
                              { c with seq; sid; canon; key } :: !checked_hits
                          | Failed cause ->
                            st.illegal <- st.illegal + 1;
                            reject seq cause)
                      end)
                    x.children)
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
           deterministic. Each batch is timed as a whole; inside the
           tier-0 batch only the legality verdicts computed on this call
           are timed. *)
        checkpoint step ".evaluate";
        let results =
          Tracer.span tracer
            (if screened then "engine.tier0" else "engine.legality")
            ~attrs:(fun () -> [ ("candidates", Int (Array.length misses)) ])
            (fun () -> pmap (evaluate_tier0 tally estimate) misses)
        in
        let pending = ref [] and computed_s = ref 0. in
        Array.iteri
          (fun i (r, apps, legality_s) ->
            let _, x, k = misses.(i) in
            let { cseq = seq; ckey = key; _ } = x.children.(k) in
            st.template_applications <- st.template_applications + apps;
            st.template_applications_saved <-
              st.template_applications_saved + max 0 (List.length seq - apps);
            computed_s := !computed_s +. legality_s;
            match r with
            | Ok c ->
              if screened then st.tier0_evaluations <- st.tier0_evaluations + 1;
              pending := c :: !pending
            | Error cause -> fail key seq cause)
          results;
        let t_batch = now () in
        st.legality_time_s <- st.legality_time_s +. !computed_s;
        (* At domains > 1 the verdicts' durations are summed across
           domains and the batch is wall-clock, so the rest is floored
           at zero. *)
        credit_rest (Float.max 0. (t_batch -. t1 -. !computed_s));
        checkpoint step ".exact";
        (* Screen, deterministically: sort every tier-0-estimated candidate
           (fresh and cached alike) by the estimate order — the screen's
           one sort; cut dominated subtrees with the admissible bound
           against the incumbent; the top-K by estimate reach the exact
           tier. The [beam] structurally-smallest survivors of the bound
           cut, selected without a second sort, are forwarded
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
            (List.sort order_estimated (checked_hits @ List.rev !pending))
        in
        List.iter (fun c -> screen_out c Bound_pruned) pruned;
        let smallest = lazy (smallest beam order_structural bound_ok) in
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
              || List.memq c (Lazy.force smallest)
            then begin
              incr kept;
              if !kept <= exact_topk then last_kept_est := est;
              decide c Survived;
              survivors := c :: !survivors
            end
            else screen_out c Screened_out)
          bound_ok;
        let t_screen = now () in
        credit_rest (t_screen -. t_batch);
        let scored = score_survivors (Array.of_list (List.rev !survivors)) in
        let t2 = now () in
        st.exact_time_s <- st.exact_time_s +. (t2 -. t_screen);
        st.evaluate_time_s <- st.evaluate_time_s +. (t2 -. t1);
        let fresh = ref [] in
        Array.iter
          (fun (c, r) ->
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
                (List.sort order_scored (hits @ List.rev !fresh))
            in
            (match top with
            | best :: _ -> incumbent := Float.min !incumbent best.value
            | [] -> ());
            frontier := top;
            bests := top @ !bests);
        st.merge_time_s <- st.merge_time_s +. (now () -. t2)
      with Cut -> ()
    done;
    let t_winner = now () in
    let winner = List.hd (List.sort order_scored !bests) in
    let t_end = now () in
    st.merge_time_s <- st.merge_time_s +. (t_end -. t_winner);
    st.families_built <- Atomic.get tally.families;
    st.refs_inherited <- Atomic.get tally.inherited;
    st.refs_computed <- Atomic.get tally.computed;
    st.domains <- domains;
    st.work_threshold <- (if domains > 1 then Pool.default_threshold else 0);
    st.total_time_s <- t_end -. t_start;
    Option.iter
      (fun m ->
        Stats.record m st;
        Metrics.set
          (Metrics.gauge m "engine.cache.size")
          (float (KeyTbl.length cache)))
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

(* Intern/memo table health, one gauge per table and figure, labeled by
   table name. Gauges are absolute process-wide values (last write
   wins), so each dump just refreshes them. *)
let record_tables m =
  List.iter
    (fun { Itf_mat.Hashcons.name; size; hits; misses; evictions } ->
      List.iter
        (fun (gauge, v) ->
          Metrics.set (Metrics.gauge m ~labels:[ ("table", name) ] gauge) (float v))
        [
          ("intern.size", size);
          ("intern.hits", hits);
          ("intern.misses", misses);
          ("intern.evictions", evictions);
        ])
    (Itf_mat.Hashcons.stats ())
