(* The traced run: a fresh bench process replays the first requests of a
   workload's stream in-process, single-threaded, with a bench span
   around every call into a layer's public functions.

   A request the daemon's response cache would not answer follows serve's
   order — [Parser.parse], [Intern.nest_id], [Analysis.vectors],
   [Engine.search] with serve's beam, steps, objective and tier-0 spec —
   and the objective closure is wrapped in a span of its own. A request
   the cache would answer goes through [Serve.handle_line] on an
   in-process replica warmed with the hot set; its parse and intern are
   also timed on their own. After each cache miss the request nest is
   compiled and simulated once ([Compile.compile], [Memsim.run_compiled]
   or [Parallel.time_compiled] with serve's cache geometry and processor
   count) under a separate "probe" root, outside the request's span.

   The replay then runs again with the null tracer and a fresh name salt
   (so novel requests are cold again); the ratio of the two wall times is
   the tracing overhead.

   Checks: every in-process answer must equal its shape's golden payload
   and the daemon's answer to the same request; every distinct winner
   must pass the interpreter oracle. *)

module Json = Itf_obs.Json
module Tracer = Itf_obs.Tracer
module Engine = Itf_opt.Engine
module Serve = Itf_serve.Serve

(* Serve's fixed search configuration (lib/serve/serve.ml). *)
let serve_cache = { Itf_machine.Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 }
let serve_procs = 8
let serve_beam = 6

type ctx = {
  tracer : Tracer.t;
  traced : bool;
  metrics : Itf_obs.Metrics.t;
  replica : Serve.t;
  minor_words : (string, float) Hashtbl.t;  (** per bench span name *)
}

let make_ctx ~traced replica =
  {
    tracer = (if traced then Tracer.create ~clock:Quant.now () else Tracer.null);
    traced;
    metrics = Itf_obs.Metrics.create ();
    replica;
    minor_words = Hashtbl.create 16;
  }

(* One call into a layer: a bench span plus the minor words the calling
   domain allocated during it. *)
let call ctx name f =
  if not ctx.traced then f ()
  else begin
    let w0 = Gc.minor_words () in
    let r = Tracer.span ctx.tracer name f in
    let dw = Gc.minor_words () -. w0 in
    Hashtbl.replace ctx.minor_words name
      (dw +. Option.value ~default:0. (Hashtbl.find_opt ctx.minor_words name));
    r
  end

let objective (s : Workload.shape) metrics =
  let params = [ ("n", s.n) ] in
  match s.objective with
  | "locality" ->
    ( Itf_opt.Search.cache_misses ~metrics ~memo:true ~params (),
      Itf_opt.Costmodel.Locality { config = serve_cache; elem_bytes = 8; params } )
  | _ ->
    ( Itf_opt.Search.parallel_time ~metrics ~memo:true ~procs:serve_procs ~params (),
      Itf_opt.Costmodel.Parallel { procs = serve_procs; spawn_overhead = 2.0; params } )

let render_sequence seq =
  if seq = [] then "identity" else Format.asprintf "%a" Itf_core.Sequence.pp seq

(* The stripped payload serve renders for a complete outcome. *)
let payload (o : Engine.outcome) =
  Json.Obj
    [
      ("status", Json.String (Engine.completion_label o.completion));
      ("score", Json.Float o.score);
      ("sequence", Json.String (render_sequence o.sequence));
      ("canonical", Json.String (render_sequence o.canonical));
      ("explored", Json.Int o.stats.Itf_opt.Stats.nodes_explored);
      ("exact_evals", Json.Int o.stats.Itf_opt.Stats.objective_evaluations);
    ]

let miss ctx (s : Workload.shape) src =
  let nest = (call ctx "lang.parse" (fun () -> Itf_lang.Parser.parse src)).Itf_lang.Parser.nest in
  ignore (call ctx "ir.intern" (fun () -> Itf_ir.Intern.nest_id nest));
  ignore (call ctx "dep.vectors" (fun () -> Itf_dep.Analysis.vectors nest));
  let obj, tier0 = objective s ctx.metrics in
  (* The engine installs its per-candidate tracer as the ambient one
     around each objective call. *)
  let obj r = Tracer.span (Tracer.ambient ()) "opt.objective" (fun () -> obj r) in
  let outcome =
    call ctx "opt.search" (fun () ->
        Engine.search ~beam:serve_beam ~steps:Workload.steps ~domains:1 ~tracer:ctx.tracer
          ~metrics:ctx.metrics ~tier0 ~exact_topk:Engine.default_exact_topk ~tier0_only:false
          nest obj)
  in
  (nest, outcome)

(* The synthetic environment serve's objectives simulate in: every array
   declared with [Costmodel.default_bounds] and filled like the
   objective's. *)
let env_for ~params nest =
  let probe = Itf_check.Oracle.make_env ~params nest in
  let env = Itf_exec.Env.create () in
  List.iter (fun (v, x) -> Itf_exec.Env.set_scalar env v x) params;
  List.iter
    (fun (a, _) ->
      let arity = Array.length (Itf_exec.Env.array_info probe a).Itf_exec.Env.los in
      Itf_exec.Env.declare_array env a (Itf_opt.Costmodel.default_bounds ~params arity);
      let data = Itf_exec.Env.array_data env a in
      Array.iteri (fun k _ -> data.(k) <- k * 31 mod 97) data)
    (Itf_exec.Env.snapshot probe);
  env

let probe ctx (s : Workload.shape) nest =
  let params = [ ("n", s.n) ] in
  let env = env_for ~params nest in
  ignore (call ctx "exec.compile" (fun () -> Itf_exec.Compile.compile env nest));
  if s.objective = "locality" then
    ignore (call ctx "machine.memsim" (fun () -> Itf_machine.Memsim.run_compiled serve_cache env nest))
  else
    ignore
      (call ctx "machine.parsim" (fun () ->
           Itf_machine.Parallel.time_compiled ~procs:serve_procs env nest))

let hit ctx src line =
  let nest = (call ctx "lang.parse" (fun () -> Itf_lang.Parser.parse src)).Itf_lang.Parser.nest in
  ignore (call ctx "ir.intern" (fun () -> Itf_ir.Intern.nest_id nest));
  fst (call ctx "serve.hit" (fun () -> Serve.handle_line ctx.replica line))

type answer =
  | Miss of { nest : Itf_ir.Nest.t; outcome : Engine.outcome option }
  | Hit of Json.t

(* One request: its root span, then (for a miss) the layer probe. *)
let request ctx ~cache_hit ~id ~src ~line (s : Workload.shape) =
  let attrs () = [ ("id", Tracer.Int id); ("shape", Tracer.String (Workload.shape_name s)) ] in
  let answer =
    Tracer.span ctx.tracer "request" ~attrs (fun () ->
        if cache_hit then Hit (hit ctx src line)
        else
          let nest, outcome = miss ctx s src in
          Miss { nest; outcome })
  in
  (match answer with
  | Miss { nest; _ } -> Tracer.span ctx.tracer "probe" ~attrs (fun () -> probe ctx s nest)
  | Hit _ -> ());
  answer

let replay ctx ~w ~salt items =
  let t0 = Quant.now () in
  let answers =
    Array.mapi
      (fun i (it : Workload.item) ->
        request ctx
          ~cache_hit:(Workload.cache_hit w ~novel:it.novel)
          ~id:i
          ~src:(Workload.item_source ~salt i it)
          ~line:(Workload.line ~salt i it) Workload.hot.(it.shape))
      items
  in
  (answers, Quant.now () -. t0)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

type checks = {
  mutable compared : int;
  mutable oracle_cases : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few, for the result file *)
  oracle_seen : (int * string, unit) Hashtbl.t;
}

let fail c fmt =
  Printf.ksprintf
    (fun s ->
      c.failed <- c.failed + 1;
      if c.failed <= 20 then c.failures <- c.failures @ [ s ])
    fmt

let strip_string s =
  match Json.of_string s with Ok j -> Json.to_string (Workload.strip j) | Error e -> "unparseable: " ^ e

(* [answer] to request [id] of shape [shape] against the golden payload
   and, when given, the daemon's response to the same request. *)
let check_answer c ~id ~shape ?server answer =
  let golden = (Lazy.force Workload.golden).(shape) in
  let name = Workload.shape_name Workload.hot.(shape) in
  let got =
    match answer with
    | Hit j -> Some (Json.to_string (Workload.strip j))
    | Miss { outcome = Some o; _ } -> Some (Json.to_string (payload o))
    | Miss { outcome = None; _ } -> None
  in
  c.compared <- c.compared + 1;
  (match got with
  | None -> fail c "request %d (%s): nest could not be scored in-process" id name
  | Some p when p <> golden -> fail c "request %d (%s): in-process %s <> golden %s" id name p golden
  | Some p -> (
    match server with
    | Some body when strip_string body <> p ->
      fail c "request %d (%s): daemon %s <> in-process %s" id name body p
    | _ -> ()));
  match answer with
  | Miss { nest; outcome = Some o } ->
    let key = (shape, render_sequence o.canonical) in
    if not (Hashtbl.mem c.oracle_seen key) then begin
      Hashtbl.add c.oracle_seen key ();
      c.oracle_cases <- c.oracle_cases + 1;
      match
        Itf_check.Oracle.run_case ~backends:[ `Interp ]
          ~params:[ ("n", Workload.hot.(shape).n) ]
          nest o.sequence
      with
      | Itf_check.Oracle.Ok_equivalent -> ()
      | _ -> fail c "request %d (%s): winner %s fails the interpreter oracle" id name (snd key)
    end
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let span_durations_us tracer =
  let tbl = Hashtbl.create 16 in
  let rec go (s : Tracer.span) =
    let buf =
      match Hashtbl.find_opt tbl s.name with
      | Some b -> b
      | None ->
        let b = Quant.Buf.create () in
        Hashtbl.add tbl s.name b;
        b
    in
    Quant.Buf.push buf (s.dur_s *. 1e6);
    List.iter go s.children
  in
  List.iter go (Tracer.roots tracer);
  fun name -> Option.map Quant.Buf.to_array (Hashtbl.find_opt tbl name)

let timed_layers =
  [
    ("serve.hit_us", "serve.hit");
    ("lang.parse_us", "lang.parse");
    ("ir.intern_us", "ir.intern");
    ("dep.vectors_us", "dep.vectors");
    ("opt.objective_us", "opt.objective");
    ("exec.compile_us", "exec.compile");
    ("machine.memsim_us", "machine.memsim");
    ("machine.parsim_us", "machine.parsim");
  ]

let out_dir = Filename.concat Workload.dir "out"

(* Run the whole traced replay of workload [w] and return its result as
   JSON. [server_bodies.(i)] is the daemon's response to request [i], when
   the measured phase got that far. *)
let run ~w ~seed ~server_bodies =
  let k = Workload.traced_requests w in
  let st = Workload.stream w ~seed in
  let items = Array.init k (Workload.nth st) in
  let replica = Serve.create ~domains:1 ~workers:1 () in
  let c =
    { compared = 0; oracle_cases = 0; failed = 0; failures = []; oracle_seen = Hashtbl.create 64 }
  in
  (* Warm-up, as the daemon's: the hot set through the miss path, then
     into the replica's response cache, then one hit each. Its spans stand
     in for layers the replay itself never calls (no misses on
     cached-repeat, no hits on warm-search and cold-novel). *)
  let warm = make_ctx ~traced:true replica in
  let tails = Lazy.force Workload.hot_tails in
  Array.iteri
    (fun shape s ->
      let id = -(shape + 1) in
      let src = Workload.source_of s and line = Workload.with_id id tails.(shape) in
      check_answer c ~id ~shape (request warm ~cache_hit:false ~id ~src ~line s))
    Workload.hot;
  Array.iteri
    (fun shape tail ->
      let id = -(shape + 1) in
      check_answer c ~id ~shape (Hit (fst (Serve.handle_line replica (Workload.with_id id tail)))))
    tails;
  Array.iteri
    (fun shape s ->
      let id = -(shape + 1) in
      let src = Workload.source_of s and line = Workload.with_id id tails.(shape) in
      check_answer c ~id ~shape (request warm ~cache_hit:true ~id ~src ~line s))
    Workload.hot;
  let ctx = make_ctx ~traced:true replica in
  let salt = Printf.sprintf "s%d" seed in
  let gc0 = Gc.quick_stat () in
  let answers, wall_traced = replay ctx ~w ~salt items in
  let gc1 = Gc.quick_stat () in
  Array.iteri
    (fun i a ->
      let server = if i < Array.length server_bodies then server_bodies.(i) else None in
      check_answer c ~id:i ~shape:items.(i).Workload.shape ?server a)
    answers;
  let _, wall_null =
    replay (make_ctx ~traced:false replica) ~w ~salt:(Printf.sprintf "r%d" seed) items
  in
  let replay_durations = span_durations_us ctx.tracer in
  let warm_durations = span_durations_us warm.tracer in
  let timed =
    List.map
      (fun (metric, span) ->
        match replay_durations span with
        | Some xs -> (metric, Quant.median xs, "replay")
        | None -> (
          match warm_durations span with
          | Some xs -> (metric, Quant.median xs, "warm-up")
          | None -> (metric, nan, "none")))
      timed_layers
  in
  let per_req x = x /. float_of_int k in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let gc =
    [
      ("gc.minor_words_per_req", per_req (gc1.Gc.minor_words -. gc0.Gc.minor_words));
      ( "gc.major_per_1k_req",
        per_req (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) *. 1e3 );
      ("gc.heap_mb_end", float_of_int gc1.Gc.heap_words *. word_bytes /. 1e6);
      ("trace.overhead_ratio", wall_traced /. wall_null);
    ]
  in
  let name = Printf.sprintf "%s-s%d" (Workload.name w) seed in
  let roots = Tracer.roots warm.tracer @ Tracer.roots ctx.tracer in
  let rows = Itf_obs.Profile.of_spans (Tracer.roots ctx.tracer) in
  Out_channel.with_open_bin (Filename.concat out_dir ("trace-" ^ name ^ ".jsonl")) (fun oc ->
      Tracer.write_jsonl oc roots);
  Out_channel.with_open_bin (Filename.concat out_dir ("profile-" ^ name ^ ".txt")) (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      Itf_obs.Profile.pp ppf rows;
      Format.pp_print_flush ppf ());
  let num x = Json.Float x in
  Json.Obj
    [
      ( "per_layer",
        Json.Obj (List.map (fun (m, v, _) -> (m, num v)) timed @ List.map (fun (m, v) -> (m, num v)) gc)
      );
      ( "per_layer_source",
        Json.Obj
          (List.map (fun (m, _, s) -> (m, Json.String s)) timed
          @ List.map (fun (m, _) -> (m, Json.String "replay")) gc) );
      ("requests", Json.Int k);
      ("wall_traced_s", num wall_traced);
      ("wall_null_s", num wall_null);
      ( "minor_words_by_layer",
        Json.Obj
          (List.sort compare
             (Hashtbl.fold (fun n v acc -> (n, num (per_req v)) :: acc) ctx.minor_words [])) );
      ( "checks",
        Json.Obj
          [
            ("compared", Json.Int c.compared);
            ("oracle_cases", Json.Int c.oracle_cases);
            ("failed", Json.Int c.failed);
            ("failures", Json.List (List.map (fun s -> Json.String s) c.failures));
          ] );
      ("profile", Itf_obs.Profile.to_json (Itf_obs.Profile.top 25 rows));
    ]
