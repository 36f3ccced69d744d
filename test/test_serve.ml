(* Tests for the anytime budget (lib/opt/engine.ml) and the serve layer
   (lib/serve/serve.ml):

   - budget semantics: an expired budget returns the best-so-far outcome
     marked [Degraded] — never an exception, never [None] — and the cut
     is deterministic: same budget cut point, bit-identical outcome. A
     budget that never trips leaves the search bit-identical to an
     unbudgeted one.
   - serve protocol: request/response roundtrip over [handle_line]; a
     second identical request is answered from the response cache; a
     deadline-cut request reports [status = "degraded"] and is NOT
     cached; malformed JSON, malformed requests and unparseable nests
     produce [status = "error"] responses rather than crashes; the LRU
     response cache evicts once past capacity.
   - tiered-regression pin: on matmul, a tiered search must see at least
     as many cross-step cache hits as the untiered search it screens for
     (the screen reorders exact evaluations; it must not destroy the
     cache's cross-step hit stream — the v7 collapse regression). *)

module Engine = Itf_opt.Engine
module Search = Itf_opt.Search
module Sequence = Itf_core.Sequence
module Serve = Itf_serve.Serve
module Request = Itf_opt.Request
module Json = Itf_obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let seq_testable =
  Alcotest.testable Sequence.pp (fun a b -> Sequence.compare a b = 0)

(* Matrix multiply with [suffix] appended to every array name. *)
let matmul_named suffix =
  let a, b, c = ("A" ^ suffix, "B" ^ suffix, "C" ^ suffix) in
  String.concat "\n"
    [
      "do i = 1, n";
      "  do j = 1, n";
      "    do k = 1, n";
      Printf.sprintf "      %s(i, j) = %s(i, j) + %s(i, k) * %s(k, j)" a a b c;
      "    enddo";
      "  enddo";
      "enddo";
      "";
    ]

let matmul_src = matmul_named ""

let params = [ ("n", 12) ]
(* The locality objective and its tier-0 mirror, as serve builds them. *)
let locality params =
  Result.get_ok (Search.of_name "locality" ~procs:8 ~params)

let obj () = fst (locality params)
let tier0_spec = snd (locality params)

let matmul_nest () =
  (Itf_lang.Parser.parse matmul_src).Itf_lang.Parser.nest

(* ------------------------------------------------------------------ *)
(* Anytime budget on Engine.search                                     *)
(* ------------------------------------------------------------------ *)

let get = function Some o -> o | None -> Alcotest.fail "search returned None"

let test_budget_zero_deadline () =
  (* Even a 0-second deadline yields the identity outcome, degraded. *)
  let o =
    get
      (Engine.search ~steps:2 ~domains:1
         ~budget:{ Engine.deadline_s = Some 0.; max_nodes = None }
         (matmul_nest ()) (obj ()))
  in
  check_string "degraded" "degraded" (Engine.completion_label o.Engine.completion);
  Alcotest.check seq_testable "identity sequence" [] o.Engine.sequence;
  match o.Engine.completion with
  | Engine.Degraded { cut } ->
    check_string "cut at the first step" "step1:deadline" cut
  | Engine.Complete -> Alcotest.fail "expected Degraded"

let test_budget_nodes_deterministic () =
  (* Two runs cut by the same node budget return bit-identical outcomes. *)
  let run () =
    get
      (Engine.search ~steps:3 ~domains:1 ~tier0:tier0_spec
         ~budget:{ Engine.deadline_s = None; max_nodes = Some 40 }
         (matmul_nest ()) (obj ()))
  in
  let a = run () and b = run () in
  check_string "both degraded" "degraded"
    (Engine.completion_label a.Engine.completion);
  check_bool "same cut" true (a.Engine.completion = b.Engine.completion);
  Alcotest.check seq_testable "same winner" a.Engine.sequence b.Engine.sequence;
  check_bool "same score" true (Float.equal a.Engine.score b.Engine.score);
  check_int "same exploration" a.Engine.stats.Itf_opt.Stats.nodes_explored
    b.Engine.stats.Itf_opt.Stats.nodes_explored

let test_budget_never_trips_identical () =
  (* A budget that never expires leaves the outcome bit-identical to an
     unbudgeted search. *)
  let free =
    get (Engine.search ~steps:2 ~domains:1 ~tier0:tier0_spec (matmul_nest ()) (obj ()))
  in
  let budgeted =
    get
      (Engine.search ~steps:2 ~domains:1 ~tier0:tier0_spec
         ~budget:{ Engine.deadline_s = Some 3600.; max_nodes = Some max_int }
         (matmul_nest ()) (obj ()))
  in
  check_string "complete" "ok" (Engine.completion_label budgeted.Engine.completion);
  Alcotest.check seq_testable "same winner" free.Engine.sequence
    budgeted.Engine.sequence;
  check_bool "same score" true (Float.equal free.Engine.score budgeted.Engine.score);
  check_int "same exploration" free.Engine.stats.Itf_opt.Stats.nodes_explored
    budgeted.Engine.stats.Itf_opt.Stats.nodes_explored

(* ------------------------------------------------------------------ *)
(* Tiered cache-hit regression pin                                     *)
(* ------------------------------------------------------------------ *)

let test_tiered_hits_not_collapsed () =
  (* The tier-0 screen must not starve the cross-step cache: on matmul —
     the bench configuration, n = 16, steps = 3 — the tiered search sees
     at least the untiered search's hits. *)
  let params = [ ("n", 16) ] in
  let obj () = fst (locality params) in
  let tier0_spec = snd (locality params) in
  let hits (o : Engine.outcome) =
    o.Engine.stats.Itf_opt.Stats.legality_cache_hits
    + o.Engine.stats.Itf_opt.Stats.score_cache_hits
  in
  let unt =
    get (Engine.search ~steps:3 ~domains:1 (matmul_nest ()) (obj ()))
  in
  let tiered =
    get
      (Engine.search ~steps:3 ~domains:1 ~tier0:tier0_spec (matmul_nest ())
         (obj ()))
  in
  check_bool
    (Printf.sprintf "tiered hits (%d) >= untiered hits (%d)" (hits tiered)
       (hits unt))
    true
    (hits tiered >= hits unt);
  Alcotest.check seq_testable "same winner" unt.Engine.sequence
    tiered.Engine.sequence

(* ------------------------------------------------------------------ *)
(* Serve protocol                                                      *)
(* ------------------------------------------------------------------ *)

let req ?(id = Json.Int 1) ?deadline_ms ?max_nodes ?(params = [ ("n", Json.Int 12) ])
    ?(steps = 2) nest =
  Json.to_string
    (Json.Obj
       ([
          ("id", id);
          ("nest", Json.String nest);
          ("params", Json.Obj params);
          ("steps", Json.Int steps);
        ]
       @ (match deadline_ms with
         | None -> []
         | Some ms -> [ ("deadline_ms", Json.Float ms) ])
       @
       match max_nodes with
       | None -> []
       | Some n -> [ ("max_nodes", Json.Int n) ]))

let field name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "response lacks %S: %s" name (Json.to_string json))

let status json =
  match Json.to_str (field "status" json) with
  | Some s -> s
  | None -> Alcotest.fail "status not a string"

let strip_envelope json =
  match json with
  | Json.Obj kvs ->
    Json.Obj (List.filter (fun (k, _) -> k <> "cached" && k <> "time_ms") kvs)
  | v -> v

let test_serve_roundtrip () =
  let server = Serve.create ~domains:1 () in
  let resp, stop = Serve.handle_line server (req ~id:(Json.String "r1") matmul_src) in
  check_bool "no shutdown" false stop;
  check_string "ok" "ok" (status resp);
  check_string "id echoed" "\"r1\"" (Json.to_string (field "id" resp));
  check_bool "score present" true (Json.to_float (field "score" resp) <> None);
  check_bool "sequence present" true (Json.to_str (field "sequence" resp) <> None);
  check_bool "not cached" true (field "cached" resp = Json.Bool false)

let test_serve_warm_cache () =
  let server = Serve.create ~domains:1 () in
  let first, _ = Serve.handle_line server (req matmul_src) in
  let second, _ = Serve.handle_line server (req ~id:(Json.Int 2) matmul_src) in
  check_string "first ok" "ok" (status first);
  check_string "second ok" "ok" (status second);
  check_bool "first is fresh" true (field "cached" first = Json.Bool false);
  check_bool "second is cached" true (field "cached" second = Json.Bool true);
  check_bool "same score" true
    (field "score" first = field "score" second);
  check_bool "same sequence" true
    (field "sequence" first = field "sequence" second)

let test_serve_degraded_not_cached () =
  (* A node budget (deterministic, unlike a wall-clock deadline) cuts the
     search: the response is degraded with a cut checkpoint, identically
     on repeat — degraded answers never enter the response cache. *)
  let server = Serve.create ~domains:1 () in
  let a, _ = Serve.handle_line server (req ~max_nodes:5 matmul_src) in
  let b, _ = Serve.handle_line server (req ~id:(Json.Int 2) ~max_nodes:5 matmul_src) in
  check_string "degraded" "degraded" (status a);
  check_bool "cut names checkpoint" true (Json.to_str (field "cut" a) <> None);
  check_string "still degraded on repeat" "degraded" (status b);
  check_bool "degraded repeat is not served from cache" true
    (field "cached" b = Json.Bool false);
  check_bool "deterministic cut" true (field "cut" a = field "cut" b);
  check_bool "deterministic score" true
    (field "score" a = field "score" b)

let test_serve_errors_not_crashes () =
  let server = Serve.create ~domains:1 () in
  let malformed, stop = Serve.handle_line server "{not json" in
  check_bool "no shutdown" false stop;
  check_string "malformed JSON is an error response" "error" (status malformed);
  let missing, _ = Serve.handle_line server "{\"id\": 7}" in
  check_string "missing nest is an error" "error" (status missing);
  check_string "id still echoed" "7" (Json.to_string (field "id" missing));
  let bad_nest, _ = Serve.handle_line server (req "do i = 1, n\n  oops(") in
  check_string "unparseable nest is an error" "error" (status bad_nest);
  let bad_field, _ =
    Serve.handle_line server
      "{\"nest\": \"x\", \"steps\": \"two\"}"
  in
  check_string "bad field type is an error" "error" (status bad_field);
  (* Wrong-typed limits and out-of-range search sizes are named errors,
     never silently dropped or run. *)
  List.iter
    (fun (label, line, message) ->
      let resp, _ = Serve.handle_line server line in
      check_string (label ^ " is an error") "error" (status resp);
      check_string (label ^ " names the field") message
        (match field "error" resp with Json.String m -> m | j -> Json.to_string j))
    [
      ( "string deadline",
        "{\"nest\": \"x\", \"deadline_ms\": \"5\"}",
        "field \"deadline_ms\" must be a number" );
      ( "float max_nodes",
        "{\"nest\": \"x\", \"max_nodes\": 2.5}",
        "field \"max_nodes\" must be an integer" );
      ( "huge steps",
        "{\"nest\": \"x\", \"steps\": 100000}",
        "field \"steps\" must be in 0..8" );
      ( "negative steps",
        "{\"nest\": \"x\", \"steps\": -1}",
        "field \"steps\" must be in 0..8" );
      ( "zero beam",
        "{\"nest\": \"x\", \"beam\": 0}",
        "field \"beam\" must be in 1..64" );
      ( "huge beam",
        "{\"nest\": \"x\", \"beam\": 65}",
        "field \"beam\" must be in 1..64" );
      (* [procs] sizes the parallel simulation, so it is bounded like
         the search sizes: out of range is a named error, never a worker
         busy simulating 10^8 processors nor "nest could not be
         scored". *)
      ( "zero procs",
        "{\"nest\": \"x\", \"procs\": 0}",
        "field \"procs\" must be in 1..1024" );
      ( "negative procs",
        "{\"nest\": \"x\", \"procs\": -3}",
        "field \"procs\" must be in 1..1024" );
      ( "huge procs",
        "{\"nest\": \"x\", \"objective\": \"parallel\", \"procs\": \
         100000000}",
        "field \"procs\" must be in 1..1024" );
      ( "negative exact_topk",
        "{\"nest\": \"x\", \"exact_topk\": -1}",
        "field \"exact_topk\" must be non-negative" );
      ( "unknown objective",
        Json.to_string
          (Json.Obj
             [ ("nest", Json.String matmul_src); ("objective", Json.String "foo") ]),
        "unknown objective \"foo\" (use locality|parallel)" );
      ( "non-string objective",
        "{\"nest\": \"x\", \"objective\": 5}",
        "field \"objective\" must be a string" );
    ];
  let not_obj, _ = Serve.handle_line server "[1, 2]" in
  check_string "non-object request is an error" "error" (status not_obj)

let test_serve_duplicate_params () =
  (* Both orders of a repeated name would share one cache key (the
     fingerprint sorts the pairs) while searching different problems, so
     neither is answered. *)
  let server = Serve.create ~domains:1 () in
  List.iteri
    (fun i params ->
      let resp, _ =
        Serve.handle_line server (req ~id:(Json.Int i) ~params matmul_src)
      in
      check_string "repeated parameter is an error" "error" (status resp);
      check_string "error names the parameter" "parameter \"n\" given twice"
        (match field "error" resp with
        | Json.String m -> m
        | j -> Json.to_string j))
    [
      [ ("n", Json.Int 16); ("n", Json.Int 8) ];
      [ ("n", Json.Int 8); ("n", Json.Int 16) ];
    ]

(* A parameter name holding the separators of the key's rendering must
   not stand for two parameters: [{"n": 8, "m": 2}] and [{"m=2,n": 8}]
   are different problems (the second leaves [n] unbound), so the
   second is searched, not answered from the first one's cache entry. *)
let test_serve_params_key_injective () =
  let first = [ ("n", Json.Int 8); ("m", Json.Int 2) ] in
  let second = [ ("m=2,n", Json.Int 8) ] in
  let server = Serve.create ~domains:1 () in
  let a, _ = Serve.handle_line server (req ~params:first matmul_src) in
  let b, _ =
    Serve.handle_line server (req ~id:(Json.Int 2) ~params:second matmul_src)
  in
  let alone, _ =
    Serve.handle_line
      (Serve.create ~domains:1 ())
      (req ~id:(Json.Int 2) ~params:second matmul_src)
  in
  check_string "first ok" "ok" (status a);
  check_bool "second is not cached" true (field "cached" b = Json.Bool false);
  check_string "second equals its own uncached answer"
    (Json.to_string (strip_envelope alone))
    (Json.to_string (strip_envelope b))

(* [Request.key] holds every field that determines the answer and
   nothing else: changing one such field changes it, changing the budget
   or the order of the parameters does not, and a request that differs
   only in its id and budget is answered from the first one's entry. *)
let test_request_key_complete () =
  let base =
    {
      Request.default with
      params = [ ("n", 16); ("m", 4) ];
      procs = 3;
      steps = 1;
      beam = 5;
      exact_topk = 7;
      tier0_only = true;
    }
  in
  let key ?(nest = "0") r = Request.key r ~nest in
  (* This request's fingerprint on the first nest a process interns.
     Ring records and [Tracer.head_keep] draws read it, so a change to
     the key's layout must show here. *)
  check_string "key pinned" "locality|1:m=4,1:n=16|1|5|7|true|3|0" (key base);
  List.iter
    (fun (label, k) ->
      check_bool (label ^ " changes the key") true (k <> key base))
    [
      ("objective", key { base with objective = "parallel" });
      ("parameter name", key { base with params = [ ("n", 16); ("k", 4) ] });
      ("parameter value", key { base with params = [ ("n", 16); ("m", 5) ] });
      ("dropped parameter", key { base with params = [ ("n", 16) ] });
      ("procs", key { base with procs = 4 });
      ("steps", key { base with steps = 2 });
      ("beam", key { base with beam = 6 });
      ("exact_topk", key { base with exact_topk = 8 });
      ("tier0_only", key { base with tier0_only = false });
      ("nest", key ~nest:"1" base);
    ];
  List.iter
    (fun (label, k) -> check_string (label ^ " keeps the key") (key base) k)
    [
      ("deadline_ms", key { base with deadline_ms = Some 5. });
      ("max_nodes", key { base with max_nodes = Some 10 });
      ("parameter order", key { base with params = [ ("m", 4); ("n", 16) ] });
    ];
  let server = Serve.create ~domains:1 () in
  let first, _ = Serve.handle_line server (req matmul_src) in
  let again, _ =
    Serve.handle_line server
      (req ~id:(Json.Int 2) ~deadline_ms:60000. ~max_nodes:100000 matmul_src)
  in
  check_string "first ok" "ok" (status first);
  check_bool "new id and budget hit the cache" true
    (field "cached" again = Json.Bool true)

(* [Request.key] as a [Printf] formula over the fields, the pairs sorted
   by polymorphic [compare]: the key's bytes before it was built in a
   buffer. *)
let printf_key (r : Request.t) ~nest =
  let params =
    List.sort compare r.Request.params
    |> List.map (fun (k, v) -> Printf.sprintf "%d:%s=%d" (String.length k) k v)
    |> String.concat ","
  in
  Printf.sprintf "%s|%s|%d|%d|%d|%b|%d|%s" r.Request.objective params
    r.Request.steps r.Request.beam r.Request.exact_topk r.Request.tier0_only
    r.Request.procs nest

(* On 5,000 seeded records, checked or not (separators in names, repeated
   names, negative values), the key equals the formula. *)
let test_request_key_formula () =
  let rs = Random.State.make [| 39 |] in
  let text () =
    String.init (Random.State.int rs 6) (fun _ -> "nm|,:=x\"".[Random.State.int rs 8])
  in
  let int () = Random.State.int rs 2001 - 1000 in
  for _ = 1 to 5_000 do
    let r =
      {
        Request.default with
        objective = text ();
        params = List.init (Random.State.int rs 5) (fun _ -> (text (), int ()));
        procs = int ();
        steps = int ();
        beam = int ();
        exact_topk = int ();
        tier0_only = Random.State.bool rs;
      }
    in
    let nest = text () in
    check_string "key" (printf_key r ~nest) (Request.key r ~nest)
  done

(* Every validity rule has one message, whichever front end asks: the
   record's own check and a serve request that breaks the same rule. *)
let test_request_rules_one_table () =
  let server = Serve.create ~domains:1 () in
  let d = Request.default in
  List.iter
    (fun (label, r, fields, message) ->
      check_string (label ^ ": Request.check") message
        (match Request.check r with Ok () -> "ok" | Error m -> m);
      let resp, _ =
        Serve.handle_line server
          (Json.to_string
             (Json.Obj (("nest", Json.String matmul_src) :: fields)))
      in
      check_string (label ^ ": serve status") "error" (status resp);
      check_string (label ^ ": serve message") message
        (match field "error" resp with
        | Json.String m -> m
        | j -> Json.to_string j))
    [
      ( "unknown objective",
        { d with objective = "fastest" },
        [ ("objective", Json.String "fastest") ],
        "unknown objective \"fastest\" (use locality|parallel)" );
      ( "repeated parameter",
        { d with params = [ ("n", 8); ("n", 16) ] },
        [ ("params", Json.Obj [ ("n", Json.Int 8); ("n", Json.Int 16) ]) ],
        "parameter \"n\" given twice" );
      ( "zero procs",
        { d with procs = 0 },
        [ ("procs", Json.Int 0) ],
        "field \"procs\" must be in 1..1024" );
      ( "huge procs",
        { d with procs = 1025 },
        [ ("procs", Json.Int 1025) ],
        "field \"procs\" must be in 1..1024" );
      ( "negative steps",
        { d with steps = -1 },
        [ ("steps", Json.Int (-1)) ],
        "field \"steps\" must be in 0..8" );
      ( "nine steps",
        { d with steps = 9 },
        [ ("steps", Json.Int 9) ],
        "field \"steps\" must be in 0..8" );
      ( "zero beam",
        { d with beam = 0 },
        [ ("beam", Json.Int 0) ],
        "field \"beam\" must be in 1..64" );
      ( "huge beam",
        { d with beam = 65 },
        [ ("beam", Json.Int 65) ],
        "field \"beam\" must be in 1..64" );
      ( "negative exact_topk",
        { d with exact_topk = -1 },
        [ ("exact_topk", Json.Int (-1)) ],
        "field \"exact_topk\" must be non-negative" );
      ( "tier0_only with an open screen",
        { d with tier0_only = true; exact_topk = 0 },
        [ ("tier0_only", Json.Bool true); ("exact_topk", Json.Int 0) ],
        "tier0_only conflicts with exact_topk = 0" );
    ];
  check_string "the default passes" "ok"
    (match Request.check d with Ok () -> "ok" | Error m -> m)

let test_serve_lru_eviction () =
  let server = Serve.create ~domains:1 ~max_cache:1 () in
  let cache name =
    let st, _ = Serve.handle_line server "{\"op\": \"status\"}" in
    match Json.to_int (field name (field "cache" st)) with
    | Some n -> n
    | None -> Alcotest.fail ("cache." ^ name ^ " not an integer")
  in
  (* Two distinct fingerprints through a 1-entry cache: the second insert
     evicts the first, so re-asking the first misses again. *)
  ignore (Serve.handle_line server (req matmul_src));
  ignore (Serve.handle_line server (req ~steps:1 ~id:(Json.Int 2) matmul_src));
  check_bool "eviction counted" true (cache "evictions" >= 1);
  check_bool "cache stays at capacity" true (cache "size" = 1);
  let again, _ = Serve.handle_line server (req ~id:(Json.Int 3) matmul_src) in
  check_bool "evicted entry recomputed" true (field "cached" again = Json.Bool false)

(* ------------------------------------------------------------------ *)
(* Introspection: status, metrics, slow log, sampling                  *)
(* ------------------------------------------------------------------ *)

let obj_field path json =
  List.fold_left (fun j name -> field name j) json path

let to_float_exn json =
  match Json.to_float json with
  | Some x -> x
  | None -> Alcotest.fail ("not a number: " ^ Json.to_string json)

let test_serve_status_op () =
  (* slow_ms 0: every request qualifies for the slow log. *)
  let server = Serve.create ~domains:1 ~slow_ms:0. () in
  ignore (Serve.handle_line server (req ~id:(Json.Int 1) matmul_src));
  ignore (Serve.handle_line server (req ~id:(Json.Int 2) matmul_src));
  let resp, stop = Serve.handle_line server "{\"op\": \"status\", \"id\": 3}" in
  check_bool "no shutdown" false stop;
  check_string "ok" "ok" (status resp);
  check_bool "requests.ok counts the two searches" true
    (obj_field [ "requests"; "ok" ] resp = Json.Int 2);
  check_bool "requests.total agrees" true
    (obj_field [ "requests"; "total" ] resp = Json.Int 2);
  check_bool "uptime positive" true (to_float_exn (field "uptime_s" resp) >= 0.);
  (* latency: both searches observed; quantiles non-zero and ordered *)
  check_bool "latency count" true
    (obj_field [ "latency_us"; "count" ] resp = Json.Int 2);
  let p50 = to_float_exn (obj_field [ "latency_us"; "p50" ] resp) in
  let p99 = to_float_exn (obj_field [ "latency_us"; "p99" ] resp) in
  check_bool "p50 > 0" true (p50 > 0.);
  check_bool "p99 >= p50" true (p99 >= p50);
  (* the per-phase breakdown is present for all five engine phases *)
  (match field "phases_us" resp with
  | Json.Obj kvs ->
    List.iter
      (fun p ->
        check_bool (p ^ " phase present") true (List.mem_assoc p kvs))
      [ "expand"; "legality"; "tier0"; "exact"; "merge" ]
  | _ -> Alcotest.fail "phases_us not an object");
  (* cache: the repeat was answered from the LRU *)
  check_bool "cache hits" true (obj_field [ "cache"; "hits" ] resp = Json.Int 1);
  (* intern tables are reported with non-zero size *)
  (match field "intern" resp with
  | Json.List (_ :: _ as tables) ->
    check_bool "intern sizes positive" true
      (List.exists
         (fun t ->
           match Json.to_int (field "size" t) with
           | Some n -> n > 0
           | None -> false)
         tables)
  | _ -> Alcotest.fail "intern not a non-empty list");
  (* the cache simulator's runs and stream counters (the objective memo
     is process-wide, so they may all be 0 here) *)
  List.iter
    (fun k ->
      check_bool ("memsim." ^ k ^ " is a count") true
        (match Json.to_int (obj_field [ "memsim"; k ] resp) with
        | Some n -> n >= 0
        | None -> false))
    [ "runs"; "stream_entries"; "stream_fallbacks" ];
  (* process memory: a live heap, never above its own peak *)
  let heap = to_float_exn (obj_field [ "memory"; "heap_mb" ] resp) in
  let top = to_float_exn (obj_field [ "memory"; "top_heap_mb" ] resp) in
  check_bool "heap_mb > 0" true (heap > 0.);
  check_bool "top_heap_mb >= heap_mb" true (top >= heap);
  (* slow log at threshold 0: both requests, newest first *)
  match field "slow" resp with
  | Json.List [ newest; oldest ] ->
    check_bool "newest first" true (field "id" newest = Json.Int 2);
    check_bool "oldest second" true (field "id" oldest = Json.Int 1);
    check_bool "cache hit marked" true (field "cached" newest = Json.Bool true);
    check_bool "fresh request carries phases" true
      (match field "phases_us" oldest with
      | Json.Obj kvs -> List.mem_assoc "exact" kvs
      | _ -> false)
  | v -> Alcotest.fail ("expected 2 slow records, got " ^ Json.to_string v)

let test_serve_metrics_op () =
  let server = Serve.create ~domains:1 () in
  ignore (Serve.handle_line server (req matmul_src));
  let resp, stop = Serve.handle_line server "{\"op\": \"metrics\", \"id\": 4}" in
  check_bool "no shutdown" false stop;
  check_string "ok" "ok" (status resp);
  match Json.to_str (field "metrics" resp) with
  | None -> Alcotest.fail "metrics not a string"
  | Some text ->
    List.iter
      (fun sub ->
        check_bool (Printf.sprintf "exposition carries %S" sub) true
          (Builders.contains ~sub text))
      ([
        "# TYPE serve_requests counter";
        "serve_requests{status=\"ok\"} 1";
        "# TYPE serve_request_us histogram";
        "serve_request_us_bucket";
        "le=\"+Inf\"";
        "serve_request_us_count 1";
        "engine_phase_us_bucket{phase=\"exact\"";
        "# TYPE gc_heap_mb gauge";
        "# TYPE gc_top_heap_mb gauge";
        "# TYPE dep_fm_calls counter";
      ]
    @ List.map
        (fun t -> Printf.sprintf "intern_size{table=%S}" t.Itf_mat.Hashcons.name)
        (Itf_mat.Hashcons.stats ()))

let test_serve_unknown_op () =
  let server = Serve.create ~domains:1 () in
  let resp, stop = Serve.handle_line server "{\"op\": \"nope\", \"id\": 5}" in
  check_bool "no shutdown" false stop;
  check_string "error" "error" (status resp);
  match Json.to_str (field "error" resp) with
  | Some msg ->
    check_bool "names the op" true (Builders.contains ~sub:"nope" msg)
  | None -> Alcotest.fail "error not a string"

(* Satellite: the determinism guard. A cached repeat must replay the
   original search payload byte-identically — only the [cached] flag and
   the wall-clock [time_ms] envelope may differ, because no wall-clock
   field is allowed into the fingerprint or the cached body. *)
let test_serve_cached_replay_byte_identical () =
  let server = Serve.create ~domains:1 () in
  let strip json =
    match json with
    | Json.Obj kvs ->
      Json.Obj
        (List.filter (fun (k, _) -> k <> "cached" && k <> "time_ms") kvs)
    | v -> v
  in
  let first, _ = Serve.handle_line server (req ~id:(Json.Int 1) matmul_src) in
  let second, _ = Serve.handle_line server (req ~id:(Json.Int 1) matmul_src) in
  check_bool "repeat hit the cache" true (field "cached" second = Json.Bool true);
  check_string "search payload replays byte-identically"
    (Json.to_string (strip first))
    (Json.to_string (strip second))

let test_serve_malformed_json_counted () =
  (* A line that is not JSON is counted and timed like any other error,
     not only answered. *)
  let server = Serve.create ~domains:1 () in
  ignore (Serve.handle_line server "{not json");
  let st, _ = Serve.handle_line server "{\"op\":\"status\"}" in
  check_bool "requests.error" true (obj_field [ "requests"; "error" ] st = Json.Int 1);
  check_bool "requests.total" true (obj_field [ "requests"; "total" ] st = Json.Int 1);
  check_bool "latency count" true
    (obj_field [ "latency_us"; "count" ] st = Json.Int 1)

(* A request line past the reader's 1 MiB cap gets one error response
   that names the cap, its rest is dropped, and it counts like malformed
   JSON; the next line on the channel, long but under the cap, is served
   as usual. *)
let test_serve_long_line () =
  let input = Filename.temp_file "long" ".jsonl"
  and output = Filename.temp_file "long" ".out" in
  Out_channel.with_open_bin input (fun oc ->
      output_string oc (String.make ((1 lsl 20) + 1) 'x');
      output_string oc "\n{\"op\":\"status\",\"id\":2";
      output_string oc (String.make 200_000 ' ' ^ "}\n"));
  let server = Serve.create ~domains:1 () in
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc ->
          Serve.serve_channel server ic oc));
  let responses =
    List.map
      (fun l -> Result.get_ok (Json.of_string l))
      (In_channel.with_open_bin output In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (( <> ) ""))
  in
  Sys.remove input;
  Sys.remove output;
  match responses with
  | [ err; st ] ->
    check_string "over-cap line" "error" (status err);
    check_bool "error names the cap" true
      (match Json.to_str (field "error" err) with
      | Some msg -> Builders.contains ~sub:"1048576" msg
      | None -> false);
    check_bool "status follows" true (field "id" st = Json.Int 2);
    check_bool "requests.error" true
      (obj_field [ "requests"; "error" ] st = Json.Int 1)
  | _ -> Alcotest.failf "%d responses, expected 2" (List.length responses)

let test_serve_slow_log_threshold () =
  (* A huge threshold keeps fast ok requests out of the slow log, but a
     degraded request always enters it (tail-based keep). *)
  let server = Serve.create ~domains:1 ~slow_ms:1e9 () in
  ignore (Serve.handle_line server (req ~id:(Json.Int 1) matmul_src));
  let st1, _ = Serve.handle_line server "{\"op\": \"status\"}" in
  check_bool "fast ok request not in the slow log" true
    (field "slow" st1 = Json.List []);
  (* steps 3 so the fingerprint differs from the cached ok request above —
     the budget itself is excluded from the cache key by design, so a
     same-fingerprint budgeted repeat would be answered ok from the LRU. *)
  ignore
    (Serve.handle_line server
       (req ~id:(Json.Int 2) ~steps:3 ~max_nodes:5 matmul_src));
  let st2, _ = Serve.handle_line server "{\"op\": \"status\"}" in
  match field "slow" st2 with
  | Json.List [ r ] ->
    check_bool "degraded request logged" true (field "id" r = Json.Int 2);
    check_bool "status recorded" true
      (field "status" r = Json.String "degraded")
  | v -> Alcotest.fail ("expected 1 slow record, got " ^ Json.to_string v)

(* Sampling decides trace *retention* only: at rate 0 an ok request's
   span tree is dropped from the trace file; at rate 1 it is kept; and a
   degraded request is kept even at rate 0. The search responses are
   unaffected either way. *)
let test_serve_sampling_retention () =
  let with_server rate f =
    let trace = Filename.temp_file "serve_trace" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
      (fun () ->
        f (Serve.create ~domains:1 ~trace_out:trace ~sample_rate:rate ()) trace)
  in
  let trace_names path =
    String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
    |> List.filter_map (fun l ->
           if String.trim l = "" then None
           else
             match Json.of_string l with
             | Ok j -> Json.to_str (field "name" j)
             | Error _ -> None)
  in
  let kept, resp_kept =
    with_server 1. (fun server trace ->
        let resp, _ = Serve.handle_line server (req ~id:(Json.Int 1) matmul_src) in
        (trace_names trace, resp))
  in
  check_bool "rate 1 retains the request span" true
    (List.mem "serve.request" kept);
  let dropped, resp_dropped =
    with_server 0. (fun server trace ->
        let resp, _ = Serve.handle_line server (req ~id:(Json.Int 1) matmul_src) in
        (trace_names trace, resp))
  in
  check_bool "rate 0 drops the ok request's spans" true (dropped = []);
  (* identical answers modulo the wall-clock envelope *)
  let strip json =
    match json with
    | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "time_ms") kvs)
    | v -> v
  in
  check_string "sampling does not change the response"
    (Json.to_string (strip resp_kept))
    (Json.to_string (strip resp_dropped));
  let tail_kept =
    with_server 0. (fun server trace ->
        ignore
          (Serve.handle_line server
             (req ~id:(Json.Int 2) ~max_nodes:5 matmul_src));
        trace_names trace)
  in
  check_bool "degraded request retained even at rate 0" true
    (List.mem "serve.request" tail_kept)

(* The trace file is streamed: after every request it holds whole lines,
   each state of it is a prefix of the next, ids run 0..k-1 in file order
   across requests, every parent is an earlier line, and the report
   parses it. A miss, a hit, a degraded request and an error at rates 0,
   0.5 and 1; at rate 1 the miss and the degraded request each keep a
   tree, so ids restarting per request would show. *)
let test_serve_trace_stream () =
  List.iter
    (fun rate ->
      let path = Filename.temp_file "serve_stream" ".jsonl" in
      let server =
        Serve.create ~domains:1 ~trace_out:path ~sample_rate:rate ~slow_ms:1e9 ()
      in
      let what = Printf.sprintf "rate %g" rate in
      let last = ref "" in
      List.iter
        (fun line ->
          ignore (Serve.handle_line server line);
          let text = In_channel.with_open_bin path In_channel.input_all in
          check_bool (what ^ ": whole lines") true
            (text = "" || text.[String.length text - 1] = '\n');
          check_bool (what ^ ": the last file is a prefix") true
            (String.starts_with ~prefix:!last text);
          last := text;
          let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
          List.iteri
            (fun k l ->
              let span = Result.get_ok (Json.of_string l) in
              check_bool (what ^ ": ids in order") true (field "id" span = Json.Int k);
              match field "parent" span with
              | Json.Null -> ()
              | Json.Int p -> check_bool (what ^ ": parent precedes") true (p < k)
              | v -> Alcotest.fail ("parent " ^ Json.to_string v))
            lines;
          check_bool (what ^ ": the report parses it") true
            (Result.is_ok (Itf_obs.Report.of_lines lines)))
        [
          req ~id:(Json.Int 1) matmul_src;
          req ~id:(Json.Int 2) matmul_src;
          req ~id:(Json.Int 3) ~steps:3 ~max_nodes:5 matmul_src;
          req ~id:(Json.Int 4) "do i = 1,";
        ];
      if rate = 1. then begin
        let roots =
          List.filter
            (fun l -> Builders.contains ~sub:"\"parent\": null" l)
            (String.split_on_char '\n' !last)
        in
        check_int "rate 1 keeps the miss and the degraded request" 2
          (List.length roots)
      end;
      Sys.remove path)
    [ 0.; 0.5; 1. ]

(* The cache gauges are refreshed only by their readers, so after hits,
   misses and evictions on a 1-entry cache, the status op's [cache]
   section, the metrics op's [serve_cache_*] lines and the metrics file
   agree. The metrics op is read on a server without a metrics file,
   whose registry nothing else refreshes. *)
let test_serve_gauges_agree () =
  let path = Filename.temp_file "serve_metrics" ".json" in
  let plain = Serve.create ~domains:1 ~max_cache:1 () in
  let filed = Serve.create ~domains:1 ~max_cache:1 ~metrics_out:path () in
  let a = req ~id:(Json.Int 1) matmul_src
  and b = req ~id:(Json.Int 2) ~steps:1 matmul_src in
  List.iter
    (fun server ->
      List.iter (fun l -> ignore (Serve.handle_line server l)) [ a; a; b; a; a ])
    [ plain; filed ];
  let names = [ "size"; "hits"; "misses"; "evictions" ] in
  let status server =
    let st, _ = Serve.handle_line server "{\"op\": \"status\"}" in
    List.map (fun k -> Option.get (Json.to_int (obj_field [ "cache"; k ] st))) names
  in
  let exposition =
    let resp, _ = Serve.handle_line plain "{\"op\": \"metrics\"}" in
    let text = Option.get (Json.to_str (field "metrics" resp)) in
    List.map
      (fun k ->
        let prefix = "serve_cache_" ^ k ^ " " in
        match
          List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)
        with
        | Some l ->
          int_of_float
            (float_of_string
               (String.sub l (String.length prefix)
                  (String.length l - String.length prefix)))
        | None -> Alcotest.fail ("no " ^ prefix ^ "line"))
      names
  in
  let expected = [ 1; 2; 3; 2 ] in
  Alcotest.(check (list int)) "status" expected (status plain);
  Alcotest.(check (list int)) "metrics op" expected exposition;
  Alcotest.(check (list int)) "status with a metrics file" expected (status filed);
  let dumped =
    match
      Json.of_string (String.trim (In_channel.with_open_bin path In_channel.input_all))
    with
    | Ok doc -> (
      match field "metrics" doc with
      | Json.List ms ->
        List.filter_map
          (fun m ->
            match
              (Json.to_str (field "name" m), Option.bind (Json.member "value" m) Json.to_float)
            with
            | Some n, Some v -> Some (n, v)
            | _ -> None)
          ms
      | _ -> Alcotest.fail "metrics not a list")
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  Alcotest.(check (list int))
    "metrics file" expected
    (List.map
       (fun k -> int_of_float (List.assoc ("serve.cache." ^ k) dumped))
       names);
  List.iter
    (fun g -> check_bool (g ^ " in the file") true (List.mem_assoc g dumped))
    [ "gc.heap_mb"; "gc.top_heap_mb" ]

(* Runs [f] with the process's stderr sent to a file, and returns what was
   written there. *)
let capture_stderr f =
  let path = Filename.temp_file "stderr" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved;
      Unix.close fd)
    f;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

(* A sink path that cannot be opened fails [create] with an error naming
   it. One that fails later costs no response: the error is reported on
   stderr once and the sink writes no more. *)
let test_serve_sink_errors () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "no-such-dir-for-sinks" in
  List.iter
    (fun (what, create) ->
      let path = Filename.concat dir "out" in
      match create path with
      | _ -> Alcotest.fail (what ^ ": create accepted an unwritable path")
      | exception Sys_error e ->
        check_bool (what ^ ": the error names the path") true
          (Builders.contains ~sub:path e))
    [
      ("trace_out", fun p -> Serve.create ~domains:1 ~trace_out:p ());
      ("metrics_out", fun p -> Serve.create ~domains:1 ~metrics_out:p ());
    ];
  let dir = Filename.temp_file "sinks" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "metrics.json" in
  let server = Serve.create ~domains:1 ~metrics_out:path () in
  Sys.remove path;
  Sys.rmdir dir;
  let lines =
    [
      (req ~id:(Json.Int 1) matmul_src, "ok");
      (req ~id:(Json.Int 2) matmul_src, "ok");
      ("{\"op\": \"status\"}", "ok");
      ("{\"op\": \"metrics\"}", "ok");
      ("{\"op\": \"nope\"}", "error");
      ("{not json", "error");
    ]
  in
  let err =
    capture_stderr (fun () ->
        List.iter
          (fun (line, want) ->
            check_string line want (status (fst (Serve.handle_line server line))))
          lines)
  in
  let reports = List.filter (Builders.contains ~sub:path) (String.split_on_char '\n' err) in
  check_int "the write error is reported once" 1 (List.length reports)

(* The acceptance pin at unit scale: on a single-domain server the four
   attributed evaluation phases (expand / legality / tier0 / exact)
   account for most of the engine's own wall time. Bounds are loose —
   CI enforces the 20% window on a warm daemon. *)
let test_serve_phase_sum_vs_total () =
  let server = Serve.create ~domains:1 () in
  ignore (Serve.handle_line server (req ~id:(Json.Int 1) ~steps:2 matmul_src));
  let st, _ = Serve.handle_line server "{\"op\": \"status\"}" in
  let phase p = to_float_exn (obj_field [ "phases_us"; p ] st) in
  let sum4 = phase "expand" +. phase "legality" +. phase "tier0" +. phase "exact" in
  let total = to_float_exn (obj_field [ "search_us"; "total" ] st) in
  check_bool "search total positive" true (total > 0.);
  check_bool
    (Printf.sprintf "phase sum (%.0fus) within [0.5, 1.05] of total (%.0fus)"
       sum4 total)
    true
    (sum4 >= 0.5 *. total && sum4 <= 1.05 *. total)

let test_serve_shutdown () =
  let server = Serve.create ~domains:1 () in
  let resp, stop = Serve.handle_line server "{\"op\": \"shutdown\", \"id\": 9}" in
  check_bool "stop requested" true stop;
  check_string "ok" "ok" (status resp);
  check_bool "shutdown acknowledged" true (field "shutdown" resp = Json.Bool true)

(* ------------------------------------------------------------------ *)
(* Concurrency: scheduler, shedding, queue deadlines, determinism      *)
(* ------------------------------------------------------------------ *)

(* An unknown objective is a malformed request: answered inline like
   any other, so even a server whose queue admits nothing answers
   [error], never [overloaded]. *)
let test_serve_objective_unknown_inline () =
  let server = Serve.create ~domains:1 ~queue_depth:0 () in
  let resp, _ =
    Serve.handle_line server
      (Json.to_string
         (Json.Obj
            [ ("nest", Json.String matmul_src); ("objective", Json.String "foo") ]))
  in
  check_string "unknown objective is an error, not shed" "error" (status resp);
  check_string "error names the objective"
    "unknown objective \"foo\" (use locality|parallel)"
    (match field "error" resp with Json.String m -> m | j -> Json.to_string j);
  let st, _ = Serve.handle_line server "{\"op\": \"status\"}" in
  check_bool "nothing was shed" true (obj_field [ "queue"; "shed" ] st = Json.Int 0)

let spawn f = Thread.create f ()

let gauge server name =
  Itf_obs.Metrics.gauge_value (Itf_obs.Metrics.gauge (Serve.metrics server) name)

(* Spin until [pred] holds (the scheduler gauges are updated by worker
   domains, so tests sequence themselves on observable state rather than
   sleeps). Returns false only after [timeout] seconds. *)
let wait_for ?(timeout = 30.) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Thread.yield ();
      go ()
    end
  in
  go ()

(* A search heavy enough to keep the single worker busy while the test
   stages queued and shed requests behind it. Its array names are salted
   per call, so every call is a cold search that misses the process-wide
   legality, tier-0 and objective memos a previous call filled. *)
let heavy_salt = Atomic.make 0

let heavy_req id =
  let suffix = Printf.sprintf "_heavy%d" (Atomic.fetch_and_add heavy_salt 1) in
  req ~id ~steps:3 ~params:[ ("n", Json.Int 16) ] (matmul_named suffix)

(* The tentpole's determinism guard: the same request mix — warm and
   cold, repeats and distinct fingerprints — produces byte-identical
   search payloads on a 4-worker server racing 4 client threads as on a
   1-worker server running them in order. Only the [cached]/[time_ms]
   envelope may differ (which repeat wins the cache insert is a race;
   what the payload says is not). *)
let test_serve_concurrent_byte_identity () =
  let variants =
    [
      (fun id -> req ~id ~steps:1 matmul_src);
      (fun id -> req ~id ~steps:2 matmul_src);
      (fun id -> req ~id ~steps:2 ~params:[ ("n", Json.Int 8) ] matmul_src);
    ]
  in
  let requests =
    List.concat
      (List.init 3 (fun rep ->
           List.mapi
             (fun i mk ->
               let id = Printf.sprintf "r%d-%d" rep i in
               (id, mk (Json.String id)))
             variants))
  in
  let serial = Serve.create ~domains:1 ~workers:1 () in
  let expected =
    List.map
      (fun (id, line) ->
        (id, Json.to_string (strip_envelope (fst (Serve.handle_line serial line)))))
      requests
  in
  let concurrent = Serve.create ~domains:1 ~workers:4 ~queue_depth:64 () in
  let results = ref [] in
  let results_lock = Mutex.create () in
  let worker slice =
    List.iter
      (fun (id, line) ->
        let resp, _ = Serve.handle_line concurrent line in
        let s = Json.to_string (strip_envelope resp) in
        Mutex.protect results_lock (fun () -> results := (id, s) :: !results))
      slice
  in
  let slices =
    List.init 3 (fun k ->
        List.filteri (fun i _ -> i mod 3 = k) requests)
  in
  let threads = List.map (fun slice -> spawn (fun () -> worker slice)) slices in
  List.iter Thread.join threads;
  check_int "all requests answered" (List.length requests)
    (List.length !results);
  List.iter
    (fun (id, want) ->
      match List.assoc_opt id !results with
      | None -> Alcotest.fail ("no concurrent response for " ^ id)
      | Some got ->
        check_string
          (Printf.sprintf "payload %s byte-identical: workers 4 vs 1" id)
          want got)
    expected

(* Overload shedding at the admission queue: with one worker pinned by a
   heavy search and the 1-slot queue full, the next search is shed
   immediately as [overloaded] — and the shed/overloaded counters record
   exactly one. *)
let test_serve_overload_shedding () =
  let server =
    Serve.create ~domains:1 ~max_cache:0 ~workers:1 ~queue_depth:1 ()
  in
  let t1 =
    spawn (fun () -> ignore (Serve.handle_line server (heavy_req (Json.Int 1))))
  in
  check_bool "worker picked up the blocker" true
    (wait_for (fun () -> gauge server "serve.workers.busy" = 1.));
  let t2 =
    spawn (fun () ->
        ignore (Serve.handle_line server (req ~id:(Json.Int 2) ~steps:1 matmul_src)))
  in
  check_bool "second search queued" true
    (wait_for (fun () -> gauge server "serve.queue.depth" = 1.));
  let shed, stop =
    Serve.handle_line server (req ~id:(Json.Int 3) ~steps:1 matmul_src)
  in
  check_bool "no shutdown" false stop;
  check_string "shed as overloaded" "overloaded" (status shed);
  check_bool "id echoed on shed" true (field "id" shed = Json.Int 3);
  check_bool "shed carries an error message" true
    (Json.to_str (field "error" shed) <> None);
  check_bool "shed response has no score" true
    (Json.member "score" shed = None);
  Thread.join t1;
  Thread.join t2;
  let st, _ = Serve.handle_line server "{\"op\": \"status\"}" in
  check_bool "exactly one shed" true (obj_field [ "queue"; "shed" ] st = Json.Int 1);
  check_bool "exactly one overloaded" true
    (obj_field [ "requests"; "overloaded" ] st = Json.Int 1);
  check_bool "the two real searches completed" true
    (obj_field [ "requests"; "ok" ] st = Json.Int 2)

(* A shed names the waiting count admission saw. Status ops are never
   shed but do wait in the queue, so behind a pinned worker one queued
   search and one queued status op make two waiting jobs on a 1-slot
   queue. *)
let test_serve_shed_message () =
  let server =
    Serve.create ~domains:1 ~max_cache:0 ~workers:1 ~queue_depth:1 ()
  in
  let blocker =
    spawn (fun () -> ignore (Serve.handle_line server (heavy_req (Json.Int 1))))
  in
  check_bool "worker picked up the blocker" true
    (wait_for (fun () -> gauge server "serve.workers.busy" = 1.));
  let queued =
    spawn (fun () ->
        ignore (Serve.handle_line server (req ~id:(Json.Int 2) ~steps:1 matmul_src)))
  in
  check_bool "search queued" true
    (wait_for (fun () -> gauge server "serve.queue.depth" = 1.));
  let op =
    spawn (fun () -> ignore (Serve.handle_line server "{\"op\": \"status\"}"))
  in
  check_bool "status op queued behind it" true
    (wait_for (fun () -> gauge server "serve.queue.depth" = 2.));
  let shed, _ =
    Serve.handle_line server (req ~id:(Json.Int 3) ~steps:1 matmul_src)
  in
  check_string "shed as overloaded" "overloaded" (status shed);
  check_bool "message names the waiting count" true
    (Json.to_str (field "error" shed)
    = Some "queue full (2 waiting, capacity 1): request shed");
  List.iter Thread.join [ blocker; queued; op ]

(* Queue-aware deadlines: a request whose allowance is consumed while it
   waits behind a heavy search is answered [degraded] with the
   [queue:deadline] cut without ever running the engine — and it never
   enters the response cache. *)
let test_serve_queue_deadline () =
  let server = Serve.create ~domains:1 ~workers:1 () in
  let t1 =
    spawn (fun () -> ignore (Serve.handle_line server (heavy_req (Json.Int 1))))
  in
  check_bool "worker picked up the blocker" true
    (wait_for (fun () -> gauge server "serve.workers.busy" = 1.));
  let resp, _ =
    Serve.handle_line server
      (req ~id:(Json.Int 2) ~deadline_ms:0.01 ~steps:1 matmul_src)
  in
  Thread.join t1;
  check_string "degraded" "degraded" (status resp);
  check_bool "cut names the queue" true
    (field "cut" resp = Json.String "queue:deadline");
  check_bool "engine never ran: no score" true (Json.member "score" resp = None);
  check_bool "not served from cache" true (field "cached" resp = Json.Bool false);
  (* same fingerprint, no deadline: must be a fresh complete search, so
     the expired request really was never cached *)
  let again, _ = Serve.handle_line server (req ~id:(Json.Int 4) ~steps:1 matmul_src) in
  check_string "repeat completes" "ok" (status again);
  check_bool "repeat was not cached" true (field "cached" again = Json.Bool false)

(* Exact accounting under concurrency: 4 threads x 5 requests against 4
   workers; every counter the server reports must balance to the request
   multiset — no lost updates in the LRU counters, the ring, the request
   counters or the latency histogram. *)
let test_serve_concurrent_exact_totals () =
  let server =
    Serve.create ~domains:1 ~workers:4 ~queue_depth:64 ~slow_ms:0. ()
  in
  let cached = Atomic.make 0 in
  let send line =
    let resp, _ = Serve.handle_line server line in
    if Json.member "cached" resp = Some (Json.Bool true) then Atomic.incr cached
  in
  let thread k =
    for i = 0 to 2 do
      send (req ~id:(Json.String (Printf.sprintf "ok-%d-%d" k i)) matmul_src)
    done;
    send
      (req
         ~id:(Json.String (Printf.sprintf "cut-%d" k))
         ~max_nodes:5 ~steps:3 matmul_src);
    send (Printf.sprintf "{\"id\": \"bad-%d\", \"nest\": 42}" k)
  in
  let threads = List.init 4 (fun k -> spawn (fun () -> thread k)) in
  List.iter Thread.join threads;
  (* replies land just before a pump releases its slot, so drain is
     observed, not assumed *)
  check_bool "scheduler drained: no busy workers" true
    (wait_for (fun () -> gauge server "serve.workers.busy" = 0.));
  check_bool "scheduler drained: empty queue" true
    (gauge server "serve.queue.depth" = 0.);
  let st, _ = Serve.handle_line server "{\"op\": \"status\"}" in
  check_bool "12 ok" true (obj_field [ "requests"; "ok" ] st = Json.Int 12);
  check_bool "4 degraded" true
    (obj_field [ "requests"; "degraded" ] st = Json.Int 4);
  check_bool "4 errors" true (obj_field [ "requests"; "error" ] st = Json.Int 4);
  check_bool "0 overloaded" true
    (obj_field [ "requests"; "overloaded" ] st = Json.Int 0);
  check_bool "total balances" true
    (obj_field [ "requests"; "total" ] st = Json.Int 20);
  check_bool "every search latency observed" true
    (obj_field [ "latency_us"; "count" ] st = Json.Int 20);
  (* every well-formed search counted exactly one hit or one miss: 12 ok
     + 4 degraded (degraded misses but is never inserted), whether the
     reader found it by text or a worker probed it; errors never reach
     the cache. Hit/miss split depends on scheduling, the sum does not,
     and every hit is a [cached: true] response. *)
  let cache_n path =
    match Json.to_int (obj_field [ "cache"; path ] st) with
    | Some n -> n
    | None -> Alcotest.fail "cache counter not an int"
  in
  check_int "LRU probes balance: hits + misses = 16" 16
    (cache_n "hits" + cache_n "misses");
  check_int "hits = cached responses" (Atomic.get cached) (cache_n "hits");
  check_bool "nothing shed" true (obj_field [ "queue"; "shed" ] st = Json.Int 0);
  (* slow_ms 0: all 20 requests are slow; the snapshot caps its listing,
     so a full window proves the ring lost none of the concurrent pushes *)
  match field "slow" st with
  | Json.List l -> check_int "slow-log window full" 16 (List.length l)
  | _ -> Alcotest.fail "slow not a list"

(* One pipelined [serve_channel] on [server] (by default a fresh
   one-worker server): [f send recv] sends request lines and reads
   responses; the channel is closed and the server thread joined when [f]
   returns. *)
let with_lines ?(server = Serve.create ~domains:1 ~workers:1 ()) f =
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let served =
    spawn (fun () ->
        let oc = Unix.out_channel_of_descr resp_w in
        Serve.serve_channel server (Unix.in_channel_of_descr req_r) oc;
        close_out oc)
  in
  let to_server = Unix.out_channel_of_descr req_w in
  let from_server = Unix.in_channel_of_descr resp_r in
  let send lines =
    List.iter (fun l -> output_string to_server (l ^ "\n")) lines;
    flush to_server
  in
  let result = f send (fun () -> input_line from_server) in
  close_out to_server;
  Thread.join served;
  close_in from_server;
  Unix.close req_r;
  result

let with_channel ?server f =
  with_lines ?server (fun send recv_line ->
      f send (fun () ->
          match Json.of_string (recv_line ()) with
          | Ok j -> j
          | Error msg -> Alcotest.fail msg))

let ids responses =
  String.concat " "
    (List.map
       (fun r -> Option.value ~default:"?" (Json.to_str (field "id" r)))
       responses)

(* Per-channel order: at one worker, a cache hit that follows a queued
   miss on the same pipelined channel queues behind it instead of being
   answered by the reader first. *)
let test_serve_channel_order () =
  let a id = req ~id:(Json.String id) matmul_src in
  let r1, r2, r3 =
    with_channel (fun send recv ->
        send [ a "a1" ];
        let r1 = recv () in
        send [ heavy_req (Json.String "b"); a "a2" ];
        let r2 = recv () in
        (r1, r2, recv ()))
  in
  check_string "responses in request order" "a1 b a2" (ids [ r1; r2; r3 ]);
  check_bool "first A was searched" true (field "cached" r1 = Json.Bool false);
  check_string "B ok" "ok" (status r2);
  check_bool "second A is cached" true (field "cached" r3 = Json.Bool true)

(* Every answer the reader makes itself passes the same gate as a hit.
   At one worker, each kind of inline answer comes back after the heavy
   miss it follows on the same channel: a malformed search, an unknown
   op, a line that is not JSON, a hit, and (on a 1-slot queue, where an
   owed hit would be shed too) a search shed behind a queued one. The
   reader stops at the first gated line until the miss is answered, so
   each kind directly follows its own miss: a later line could not
   overtake even ungated. *)
let test_serve_inline_answers_order () =
  let behind_miss ?server cases =
    with_channel ?server (fun send recv ->
        List.concat_map
          (fun lines ->
            send lines;
            List.init (List.length lines) (fun _ -> recv ()))
          cases)
  in
  let a id = req ~id:(Json.String id) matmul_src in
  let b () = heavy_req (Json.String "b") in
  let responses =
    behind_miss
      [
        [ a "a1" ];
        [ b (); {|{"id": "m", "nest": 42}|} ];
        [ b (); {|{"id": "u", "op": "frobnicate"}|} ];
        [ b (); "not json" ];
        [ b (); a "a2" ];
      ]
  in
  check_string "responses in request order" "a1 b m b u b ? b a2"
    (ids responses);
  check_string "statuses" "ok ok error ok error ok error ok ok"
    (String.concat " " (List.map status responses));
  check_bool "the hit is cached" true
    (field "cached" (List.nth responses 8) = Json.Bool true);
  let server = Serve.create ~domains:1 ~workers:1 ~queue_depth:1 () in
  let shed =
    behind_miss ~server
      [
        [
          b ();
          req ~id:(Json.String "q") ~steps:1 matmul_src;
          req ~id:(Json.String "s") ~steps:2 matmul_src;
        ];
      ]
  in
  check_string "shed in request order" "b q s" (ids shed);
  check_bool "one of the last two searches was shed" true
    (List.exists (fun r -> status r = "overloaded") (List.tl shed))

(* Backpressure on inline answers: a channel that pipelines junk behind
   a heavy search at one worker and a 1-slot queue is held at its reader
   until the search is answered. Its junk never enters the scheduler
   queue, so the queue stays empty and another client's search is
   admitted instead of shed. *)
let test_serve_inline_backpressure () =
  let server =
    Serve.create ~domains:1 ~max_cache:0 ~workers:1 ~queue_depth:1 ()
  in
  let junk = 50 in
  let errors () =
    Itf_obs.Metrics.counter_value
      (Itf_obs.Metrics.counter (Serve.metrics server)
         ~labels:[ ("status", "error") ] "serve.requests")
  in
  let responses, other, depth =
    with_channel ~server (fun send recv ->
        send [ heavy_req (Json.String "b") ];
        check_bool "worker picked up the heavy search" true
          (wait_for (fun () -> gauge server "serve.workers.busy" = 1.));
        send (List.init junk (fun i -> Printf.sprintf "junk %d" i));
        (* Held at the reader, the junk is answered only once the heavy
           search is; queued behind it, it would all be counted at once. *)
        ignore (wait_for ~timeout:0.2 (fun () -> errors () >= junk));
        let depth = gauge server "serve.queue.depth" in
        let other, _ =
          Serve.handle_line server (req ~id:(Json.String "c") ~steps:1 matmul_src)
        in
        (List.init (junk + 1) (fun _ -> recv ()), other, depth))
  in
  check_bool "junk never queued" true (depth = 0.);
  check_string "another channel's search admitted" "ok" (status other);
  check_string "heavy search answered first" "b" (ids [ List.hd responses ]);
  check_int "every junk line answered as an error" junk
    (List.length
       (List.filter (fun r -> status r = "error") (List.tl responses)))

let queue_waits server =
  Itf_obs.Metrics.histogram_count
    (Itf_obs.Metrics.histogram (Serve.metrics server)
       ~buckets:Itf_obs.Metrics.duration_buckets "serve.queue.wait_ms")

let cache_field st name =
  match Json.to_int (obj_field [ "cache"; name ] st) with
  | Some n -> n
  | None -> Alcotest.fail ("cache." ^ name ^ " not an int")

(* An exact repeat of a request's text is answered by the reader without
   queueing; a respelled nest (a comment, a blank line) is a different
   text, so it queues, and the worker finds it by its fingerprint and
   records the new spelling. *)
let test_serve_spelling_index () =
  let server = Serve.create ~domains:1 () in
  let ask src =
    let resp, _ = Serve.handle_line server (req src) in
    check_string "ok" "ok" (status resp);
    (resp, queue_waits server)
  in
  let respelled = "# the same nest\n\n" ^ matmul_src in
  let first, q1 = ask matmul_src in
  let repeat, q2 = ask matmul_src in
  let other, q3 = ask respelled in
  let other_again, q4 = ask respelled in
  check_bool "first is searched" true (field "cached" first = Json.Bool false);
  check_int "first is queued" 1 q1;
  check_bool "exact repeat is cached" true (field "cached" repeat = Json.Bool true);
  check_int "exact repeat is answered by the reader" 1 q2;
  check_bool "respelled nest is cached" true (field "cached" other = Json.Bool true);
  check_int "respelled nest goes through a worker" 2 q3;
  check_bool "its repeat is cached" true
    (field "cached" other_again = Json.Bool true);
  check_int "its repeat is answered by the reader" 2 q4;
  List.iter
    (fun r ->
      check_string "same payload"
        (Json.to_string (strip_envelope first))
        (Json.to_string (strip_envelope r)))
    [ repeat; other; other_again ];
  let st, _ = Serve.handle_line server "{\"op\": \"status\"}" in
  check_int "3 hits" 3 (cache_field st "hits");
  check_int "1 miss" 1 (cache_field st "misses");
  check_int "2 spellings" 2 (cache_field st "spellings")

(* A response line without its trailing [cached] and [time_ms] fields. *)
let strip_line line =
  let sep = ", \"cached\": " in
  let rec last i =
    if i < 0 then Alcotest.failf "no cached field: %s" line
    else if String.sub line i (String.length sep) = sep then i
    else last (i - 1)
  in
  String.sub line 0 (last (String.length line - String.length sep)) ^ "}"

(* A hit writes the body its entry stored at insert: for an id of every
   JSON kind, the reader's hit by text and a respelled nest's canonical
   hit on the worker write, as raw lines on the channel, the miss's line
   byte for byte, once [cached] and [time_ms] are cut off. *)
let test_serve_raw_hit_bytes () =
  let ids =
    [
      Json.Int (-7);
      Json.Float 2.5;
      Json.String "q\"b\\s\nµ☃";
      Json.Null;
      Json.Bool true;
      Json.List [ Json.Int 1; Json.String "a" ];
      Json.Obj [ ("k", Json.List []); ("v", Json.Float (-0.125)) ];
    ]
  in
  with_lines (fun send recv ->
      List.iteri
        (fun i id ->
          (* One parameter value per id, so each id's first request is a
             miss. *)
          let ask src =
            send [ req ~id ~params:[ ("n", Json.Int (8 + i)) ] ~steps:1 src ];
            recv ()
          in
          let miss = ask matmul_src in
          let by_text = ask matmul_src in
          let canonical = ask ("# respelled\n" ^ matmul_src) in
          let label = Json.to_string id in
          check_bool (label ^ ": miss") true
            (Builders.contains ~sub:"\"cached\": false, \"time_ms\"" miss);
          List.iter
            (fun (what, line) ->
              check_bool (label ^ ": " ^ what ^ " is a hit") true
                (Builders.contains ~sub:"\"cached\": true, \"time_ms\"" line);
              check_string (label ^ ": " ^ what) (strip_line miss)
                (strip_line line))
            [ ("hit by text", by_text); ("canonical hit", canonical) ];
          check_string (label ^ ": id echoed")
            ("{\"id\": " ^ Json.to_string id ^ ", \"status\": \"ok\"")
            (String.sub miss 0 (String.length (Json.to_string id) + 23)))
        ids)

(* The reader finds newlines in the channel's buffer: lines that straddle
   a 4,096-byte and a 65,536-byte boundary, a line exactly at the 1 MiB
   cap (served) and one byte over it (one error), and a last line with
   no newline are each answered, in order, on one channel. *)
let test_serve_line_reader () =
  let cap = 1 lsl 20 in
  let status_line id len =
    let head = Printf.sprintf "{\"op\": \"status\", \"id\": %d" id in
    head ^ String.make (len - String.length head - 1) ' ' ^ "}"
  in
  let lengths =
    List.init 40 (fun k -> 900 + (1699 * k)) @ [ cap; cap + 1; 100; 50 ]
  in
  let lines = List.mapi (fun id len -> status_line id len) lengths in
  (* Where each line starts and ends in the input, newlines included. *)
  let straddles block =
    let rec go off n = function
      | [] -> n
      | len :: rest ->
        let stop = off + len + 1 in
        go stop (if off / block <> (stop - 1) / block then n + 1 else n) rest
    in
    go 0 0 lengths
  in
  check_bool "lines straddle 4 KiB boundaries" true (straddles 4096 > 10);
  check_bool "lines straddle 64 KiB boundaries" true (straddles 65536 > 10);
  let input = Filename.temp_file "lines" ".jsonl"
  and output = Filename.temp_file "lines" ".out" in
  Out_channel.with_open_bin input (fun oc ->
      List.iteri
        (fun i l ->
          output_string oc l;
          if i < List.length lines - 1 then output_char oc '\n')
        lines);
  let server = Serve.create ~domains:1 () in
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc ->
          Serve.serve_channel server ic oc));
  let responses =
    In_channel.with_open_bin output In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun l -> Result.get_ok (Json.of_string l))
  in
  Sys.remove input;
  Sys.remove output;
  check_int "one response per line" (List.length lines) (List.length responses);
  List.iteri
    (fun i (len, r) ->
      if len > cap then begin
        check_string "over the cap" "error" (status r);
        check_bool "error names the cap" true
          (Builders.contains ~sub:(string_of_int cap)
             (Option.value ~default:"" (Json.to_str (field "error" r))))
      end
      else begin
        check_string (Printf.sprintf "line %d (%d bytes)" i len) "ok" (status r);
        check_bool (Printf.sprintf "line %d id" i) true (field "id" r = Json.Int i)
      end)
    (List.combine lengths responses)

(* The index holds at most the cache's capacity: 1,000 distinct texts of
   one nest each record a spelling, and the index is cleared, never
   grown, when full. *)
let test_serve_spelling_index_bounded () =
  let cap = 4 in
  let server = Serve.create ~domains:1 ~max_cache:cap () in
  let most = ref 0 in
  for i = 0 to 999 do
    let src = Printf.sprintf "# spelling %d\n%s" i matmul_src in
    let resp, _ = Serve.handle_line server (req ~id:(Json.Int i) src) in
    check_bool "cached after the first" (i > 0)
      (field "cached" resp = Json.Bool true);
    let st, _ = Serve.handle_line server "{\"op\": \"status\"}" in
    most := max !most (cache_field st "spellings");
    check_int "capacity reported" cap (cache_field st "capacity")
  done;
  check_int "the index fills to the cap and no further" cap !most

(* ------------------------------------------------------------------ *)
(* Response cache, without a server                                    *)
(* ------------------------------------------------------------------ *)

module Cache = Itf_serve.Response_cache

let held c k = Cache.find c k <> None

(* Eviction takes the least recently touched entry, and a canonical hit
   and a hit by text both count as a touch. *)
let test_cache_eviction_order () =
  let c = Cache.create 2 in
  ignore (Cache.add c "a" 1);
  ignore (Cache.add c "b" 2);
  ignore (Cache.add c "c" 3);
  check_bool "oldest evicted" false (held c "a");
  check_bool "newest kept" true (held c "c");
  (* "b" and "c" held; a canonical hit on "b" makes "c" the oldest *)
  ignore (Cache.find c "b");
  ignore (Cache.add c "d" 4);
  check_bool "canonical hit refreshes" true (held c "b");
  check_bool "untouched evicted" false (held c "c");
  (* a hit by text on "d" makes "b" the oldest *)
  ignore (Cache.add c ~spelling:"text-d" "d" 4);
  ignore (Cache.find c "b");
  check_bool "hit by text" true (Cache.find_spelling c "text-d" <> None);
  ignore (Cache.add c "e" 5);
  check_bool "hit by text refreshes" true (held c "d");
  check_bool "older entry evicted" false (held c "b")

let test_cache_spelling_counts () =
  let c = Cache.create 2 in
  ignore (Cache.add c ~spelling:"s" "k" 7);
  let before = Cache.counters c in
  check_bool "unknown spelling finds nothing" true
    (Cache.find_spelling c "other" = None);
  check_bool "finding nothing counts nothing" true (Cache.counters c = before);
  (match Cache.find_spelling c "s" with
  | Some (key, v) ->
    let counters = Cache.counters c in
    check_string "spelling names its key" "k" key;
    check_int "value" 7 v;
    check_int "a hit is counted" (before.hits + 1) counters.hits;
    check_int "no miss" before.misses counters.misses
  | None -> Alcotest.fail "spelling not found");
  (* an evicted entry's spelling finds nothing and counts nothing *)
  ignore (Cache.add c "x" 0);
  ignore (Cache.add c "y" 0);
  let before = Cache.counters c in
  check_bool "evicted entry's spelling" true (Cache.find_spelling c "s" = None);
  check_bool "counts nothing" true (Cache.counters c = before)

let test_cache_spellings_cleared_at_cap () =
  let c = Cache.create 2 in
  ignore (Cache.add c ~spelling:"s1" "k" 0);
  ignore (Cache.find c ~spelling:"s2" "k");
  check_int "two spellings" 2 (Cache.counters c).spellings;
  ignore (Cache.find c ~spelling:"s2" "k");
  check_int "a known spelling does not clear" 2 (Cache.counters c).spellings;
  ignore (Cache.find c ~spelling:"s3" "k");
  check_int "a new spelling at the cap clears the index" 1
    (Cache.counters c).spellings;
  check_bool "cleared spelling gone" true (Cache.find_spelling c "s1" = None);
  check_bool "new spelling held" true (Cache.find_spelling c "s3" <> None)

let test_cache_zero_capacity () =
  let c = Cache.create 0 in
  Cache.add c ~spelling:"s" "k" 1;
  let after = Cache.counters c in
  check_int "nothing stored" 0 after.size;
  check_int "no spelling" 0 after.spellings;
  check_bool "a probe misses" false (held c "k");
  check_bool "no hit by text" true (Cache.find_spelling c "s" = None);
  check_int "capacity" 0 (Cache.capacity c)

(* Against a list model, over a seeded stream of probes and inserts:
   after each one the counters equal the operations made so far, and the
   model's LRU order decides every eviction. *)
let test_cache_counters_model () =
  let cap = 4 in
  let c = Cache.create cap in
  let rng = Random.State.make [| 41 |] in
  let order = ref [] (* most recent first *) in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let check what (got : Cache.counters) =
    check_int (what ^ " hits") !hits got.hits;
    check_int (what ^ " misses") !misses got.misses;
    check_int (what ^ " evictions") !evictions got.evictions;
    check_int (what ^ " size") (List.length !order) got.size
  in
  let touch k = order := k :: List.filter (( <> ) k) !order in
  for _ = 1 to 2_000 do
    let k = string_of_int (Random.State.int rng 8) in
    if Random.State.bool rng then begin
      let found = Cache.find c k in
      if List.mem k !order then begin
        incr hits;
        touch k
      end
      else incr misses;
      check_bool "find agrees with the model" (List.mem k !order) (found <> None);
      check "find" (Cache.counters c)
    end
    else begin
      if (not (List.mem k !order)) && List.length !order >= cap then begin
        incr evictions;
        order := List.filteri (fun i _ -> i < cap - 1) !order
      end;
      touch k;
      Cache.add c k ();
      check "add" (Cache.counters c)
    end
  done;
  check "snapshot" (Cache.counters c)

(* A request object's fields are each their first binding: a second
   [id], [op], [nest], [steps] or [params] of the wrong type changes
   nothing, and the raw response equals the response to the request
   without it. *)
let test_serve_first_binding () =
  let base =
    [
      ("id", Json.Int 3);
      ("nest", Json.String matmul_src);
      ("params", Json.Obj [ ("n", Json.Int 8) ]);
      ("steps", Json.Int 1);
    ]
  in
  let line fields = Json.to_string (Json.Obj fields) in
  let raw l =
    let server = Serve.create ~domains:1 ~workers:1 () in
    let resp = with_lines ~server (fun send recv -> send [ l ]; recv ()) in
    Str.global_replace (Str.regexp ", \"time_ms\": [^,}]*") "" resp
  in
  let expected = raw (line base) in
  check_bool "the plain request is answered ok" true
    (Builders.contains ~sub:"\"status\": \"ok\"" expected);
  List.iter
    (fun (name, wrong) ->
      check_string (name ^ " twice") expected
        (raw (line (base @ [ (name, wrong) ]))))
    [
      ("id", Json.String "second");
      ("nest", Json.Int 5);
      ("steps", Json.String "two");
      ("params", Json.Int 7);
    ];
  let shutdown = [ ("op", Json.String "shutdown"); ("id", Json.Int 9) ] in
  check_string "op twice"
    (raw (line shutdown))
    (raw (line (shutdown @ [ ("op", Json.Int 5) ])))

(* A seeded stream of mutated request lines through one channel at one
   worker: truncated lines, a line over the 1 MiB cap, deep JSON,
   wrongly typed fields, duplicate ids, unknown ops and blank lines.
   Every non-blank line gets exactly one response, in order; the final
   status counts every line before it, and a search after the stream is
   still answered. *)
let test_serve_protocol_fuzz () =
  let rng = Random.State.make [| 14 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let search id =
    [
      ("id", Json.Int id);
      ("nest", Json.String matmul_src);
      ("params", Json.Obj [ ("n", Json.Int (pick [ 4; 8 ])) ]);
      ("steps", Json.Int (pick [ 0; 1 ]));
      ("objective", Json.String (pick [ "locality"; "parallel" ]));
    ]
  in
  let wrong = [ Json.String "x"; Json.Float 2.5; Json.List []; Json.Null; Json.Bool true ] in
  let line i =
    let fields = search i in
    match Random.State.int rng 8 with
    | 0 ->
      let l = Json.to_string (Json.Obj fields) in
      String.sub l 0 (Random.State.int rng (String.length l))
    | 1 ->
      let k = pick [ "params"; "steps"; "beam"; "procs"; "objective"; "deadline_ms"; "tier0_only" ] in
      Json.to_string (Json.Obj ((k, pick wrong) :: fields))
    | 2 -> Json.to_string (Json.Obj (("id", Json.Int (i / 7)) :: List.tl fields))
    | 3 -> Printf.sprintf {|{"op": %S, "id": %d}|} (pick [ "stat"; ""; "SHUTDOWN"; "nope" ]) i
    | 4 -> pick [ ""; "   "; "[1]"; "42"; "{"; "null" ]
    | _ -> Json.to_string (Json.Obj fields)
  in
  let lines =
    List.init 2_000 line
    @ [
        "{\"id\": \"big\", \"nest\": \"" ^ String.make ((1 lsl 20) + 10) 'x' ^ "\"}";
        String.make 100_000 '[' ^ String.make 100_000 ']';
      ]
  in
  let sent = List.filter (fun l -> String.trim l <> "") lines in
  let final =
    [ {|{"op": "status", "id": "final"}|}; Json.to_string (Json.Obj (search 9999)) ]
  in
  let input = Filename.temp_file "fuzz" ".jsonl"
  and output = Filename.temp_file "fuzz" ".out" in
  Out_channel.with_open_bin input (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (lines @ final));
  let server = Serve.create ~domains:1 ~workers:1 ~queue_depth:4096 () in
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc -> Serve.serve_channel server ic oc));
  let responses =
    In_channel.with_open_bin output In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun l -> Result.get_ok (Json.of_string l))
  in
  Sys.remove input;
  Sys.remove output;
  check_int "one response per non-blank line"
    (List.length sent + 2) (List.length responses);
  let expected_id l =
    match Json.of_string l with
    | Ok (Json.Obj kvs) when String.length l <= 1 lsl 20 ->
      Option.value ~default:Json.Null (List.assoc_opt "id" kvs)
    | _ -> Json.Null
  in
  List.iteri
    (fun i (l, r) ->
      check_string (Printf.sprintf "response %d in order" i)
        (Json.to_string (expected_id l)) (Json.to_string (field "id" r)))
    (List.combine (sent @ final) responses);
  let st = List.nth responses (List.length sent) in
  check_bool "status counts every line before it" true
    (obj_field [ "requests"; "total" ] st = Json.Int (List.length sent));
  check_string "a search after the stream" "ok"
    (status (List.nth responses (List.length sent + 1)))

(* ------------------------------------------------------------------ *)
(* Novel traffic: every bounded table evicts, answers stay golden      *)
(* ------------------------------------------------------------------ *)

let e2e_path parts =
  List.fold_left Filename.concat ".." ("bench" :: "e2e" :: parts)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let kernels = [ "figure2"; "lu"; "matmul"; "stencil" ]

let kernel_src k = read_file (e2e_path [ "nests"; k ^ ".loop" ])

(* Append [suffix] to every identifier applied to a subscript list: in
   these four nests those are exactly the array references. Renaming
   every array by one suffix changes no part of an answer. *)
let rename_arrays ~suffix src =
  Str.global_replace (Str.regexp "\\([A-Za-z_][A-Za-z0-9_]*\\)(") ("\\1" ^ suffix ^ "(") src

let search_line ~id ~objective ~n ~steps src =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("nest", Json.String src);
         ("objective", Json.String objective);
         ("params", Json.Obj [ ("n", Json.Int n) ]);
         ("steps", Json.Int steps);
       ])

(* Every table with a working-set cap. *)
let bounded_tables =
  [
    "core.derivation"; "dep.vectors"; "ir.nest"; "opt.obj.memsim";
    "opt.obj.parsim";
  ]

let not_yet_evicted () =
  List.filter
    (fun name ->
      not
        (List.exists
           (fun (s : Itf_mat.Hashcons.stats) ->
             s.Itf_mat.Hashcons.name = name && s.Itf_mat.Hashcons.evictions > 0)
           (Itf_mat.Hashcons.stats ())))
    bounded_tables

(* Distinct nests stream through one daemon until every bounded table
   has flushed a shard: each round a renamed e2e shape searched under
   both objectives, and cheap depth-0 searches of further renamed copies
   for the tables keyed on root nests. Renamed copies of the 24 hot
   shapes must then still get their golden payloads, the answers a fresh
   process gives (bench/e2e/expected/). *)
let test_novel_stream_evicts () =
  let server = Serve.create ~domains:1 () in
  let srcs = Array.of_list (List.map kernel_src kernels) in
  let id = ref 0 in
  let send line =
    incr id;
    let resp, _ = Serve.handle_line server line in
    if status resp <> "ok" then
      Alcotest.failf "request %d: %s" !id (Json.to_string resp)
  in
  let round = ref 0 in
  while not_yet_evicted () <> [] && !round < 1000 do
    incr round;
    let src = srcs.(!round mod Array.length srcs) in
    let renamed k = rename_arrays ~suffix:(Printf.sprintf "_ev%d_%d" !round k) src in
    List.iter
      (fun objective ->
        send (search_line ~id:!id ~objective ~n:8 ~steps:2 (renamed 0)))
      [ "locality"; "parallel" ];
    for k = 1 to 4 do
      send (search_line ~id:!id ~objective:"locality" ~n:4 ~steps:0 (renamed k))
    done
  done;
  Alcotest.(check (list string)) "every bounded table evicted" []
    (not_yet_evicted ());
  List.iter
    (fun (k, src) ->
      List.iter
        (fun objective ->
          List.iter
            (fun n ->
              let name = Printf.sprintf "%s-%s-n%d" k objective n in
              let golden =
                match Json.of_string (read_file (e2e_path [ "expected"; name ^ ".json" ])) with
                | Ok v -> Json.to_string v
                | Error e -> Alcotest.failf "%s: %s" name e
              in
              let resp, _ =
                Serve.handle_line server
                  (search_line ~id:0 ~objective ~n ~steps:2
                     (rename_arrays ~suffix:"_golden" src))
              in
              let payload =
                match resp with
                | Json.Obj kvs ->
                  Json.to_string
                    (Json.Obj
                       (List.filter
                          (fun (f, _) -> f <> "id" && f <> "cached" && f <> "time_ms")
                          kvs))
                | v -> Alcotest.failf "%s: response %s" name (Json.to_string v)
              in
              check_string (name ^ ": golden payload after evictions") golden
                payload)
            [ 8; 12; 16 ])
        [ "locality"; "parallel" ])
    (List.combine kernels (Array.to_list srcs))

(* No table outside the bounded list grows with what a client may vary
   freely: 200 searches, each naming a parameter no earlier one named
   and a dependence distance no earlier one had, leave every other
   table as full as the first search left it. The moves of the 1-deep
   nest and the direction of its one dependence are the same in every
   request, and the beam holds every legal first step, so every request
   interns the same templates and sequences. *)
let test_fresh_names_grow_nothing () =
  let server = Serve.create ~domains:1 () in
  let send k =
    let line =
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int k);
             ( "nest",
               Json.String
                 (Printf.sprintf
                    "do i = 1, n\n  grow(i) = grow(i - %d) + 1\nenddo\n" k) );
             ( "params",
               Json.Obj
                 [ ("n", Json.Int 8); (Printf.sprintf "p%d" k, Json.Int k) ] );
           ])
    in
    let resp, _ = Serve.handle_line server line in
    if status resp <> "ok" then
      Alcotest.failf "request %d: %s" k (Json.to_string resp)
  in
  let unbounded () =
    List.filter_map
      (fun (s : Itf_mat.Hashcons.stats) ->
        if List.mem s.Itf_mat.Hashcons.name bounded_tables then None
        else Some (s.Itf_mat.Hashcons.name, s.Itf_mat.Hashcons.size))
      (Itf_mat.Hashcons.stats ())
  in
  send 1;
  let first = unbounded () in
  for k = 2 to 200 do
    send k
  done;
  List.iter2
    (fun (name, size) (_, now) ->
      check_bool
        (Printf.sprintf "%s: %d entries after one search, %d after 200" name
           size now)
        true (now <= size))
    first (unbounded ())

let () =
  Alcotest.run "serve"
    [
      ( "budget",
        [
          Alcotest.test_case "zero deadline yields degraded identity" `Quick
            test_budget_zero_deadline;
          Alcotest.test_case "node-budget cut is deterministic" `Quick
            test_budget_nodes_deterministic;
          Alcotest.test_case "untripped budget is bit-identical" `Quick
            test_budget_never_trips_identical;
        ] );
      ( "tiered-regression",
        [
          Alcotest.test_case "tiered cache hits not collapsed (matmul)" `Quick
            test_tiered_hits_not_collapsed;
        ] );
      ( "serve",
        [
          Alcotest.test_case "request/response roundtrip" `Quick
            test_serve_roundtrip;
          Alcotest.test_case "second identical request is cached" `Quick
            test_serve_warm_cache;
          Alcotest.test_case "budget cut: degraded, deterministic, uncached"
            `Quick test_serve_degraded_not_cached;
          Alcotest.test_case "malformed input yields error responses" `Quick
            test_serve_errors_not_crashes;
          Alcotest.test_case "repeated parameter is an error" `Quick
            test_serve_duplicate_params;
          Alcotest.test_case "LRU response cache evicts at capacity" `Quick
            test_serve_lru_eviction;
          Alcotest.test_case "shutdown request stops the loop" `Quick
            test_serve_shutdown;
          Alcotest.test_case "unknown objective is answered inline" `Quick
            test_serve_objective_unknown_inline;
          Alcotest.test_case "parameter names cannot share a cache key" `Quick
            test_serve_params_key_injective;
          Alcotest.test_case "request key equals its formula" `Quick
            test_request_key_formula;
          Alcotest.test_case "request key covers all but the budget" `Quick
            test_request_key_complete;
          Alcotest.test_case "one validation table for both front ends" `Quick
            test_request_rules_one_table;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "status op snapshot" `Quick test_serve_status_op;
          Alcotest.test_case "malformed JSON is counted" `Quick
            test_serve_malformed_json_counted;
          Alcotest.test_case "over-cap line is one error" `Quick
            test_serve_long_line;
          Alcotest.test_case "line reader: boundaries, cap, last line" `Quick
            test_serve_line_reader;
          Alcotest.test_case "metrics op exposition" `Quick
            test_serve_metrics_op;
          Alcotest.test_case "unknown op is an error" `Quick
            test_serve_unknown_op;
          Alcotest.test_case "cached replay is byte-identical" `Quick
            test_serve_cached_replay_byte_identical;
          Alcotest.test_case "slow-log threshold" `Quick
            test_serve_slow_log_threshold;
          Alcotest.test_case "sampling retention" `Quick
            test_serve_sampling_retention;
          Alcotest.test_case "the trace file is streamed" `Quick
            test_serve_trace_stream;
          Alcotest.test_case "gauges agree wherever they are read" `Quick
            test_serve_gauges_agree;
          Alcotest.test_case "sink errors cost no response" `Quick
            test_serve_sink_errors;
          Alcotest.test_case "phase sum tracks search total" `Quick
            test_serve_phase_sum_vs_total;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "workers 4 == workers 1 byte-identical" `Quick
            test_serve_concurrent_byte_identity;
          Alcotest.test_case "overload sheds at the queue cap" `Quick
            test_serve_overload_shedding;
          Alcotest.test_case "queued past deadline never runs" `Quick
            test_serve_queue_deadline;
          Alcotest.test_case "concurrent totals are exact" `Quick
            test_serve_concurrent_exact_totals;
          Alcotest.test_case "hits keep per-channel order" `Quick
            test_serve_channel_order;
          Alcotest.test_case "inline answers keep per-channel order" `Quick
            test_serve_inline_answers_order;
          Alcotest.test_case "inline answers wait at the reader" `Quick
            test_serve_inline_backpressure;
          Alcotest.test_case "spelling index: repeats and respellings" `Quick
            test_serve_spelling_index;
          Alcotest.test_case "hits write the miss's bytes" `Quick
            test_serve_raw_hit_bytes;
          Alcotest.test_case "spelling index stays within the cap" `Quick
            test_serve_spelling_index_bounded;
          Alcotest.test_case "shed message counts queued ops" `Quick
            test_serve_shed_message;
        ] );
      ( "response cache",
        [
          Alcotest.test_case "evicts the least recently touched" `Quick
            test_cache_eviction_order;
          Alcotest.test_case "hits by text count, misses by text do not"
            `Quick test_cache_spelling_counts;
          Alcotest.test_case "spelling index is cleared at the cap" `Quick
            test_cache_spellings_cleared_at_cap;
          Alcotest.test_case "capacity 0 stores nothing" `Quick
            test_cache_zero_capacity;
          Alcotest.test_case "counters equal the operations made" `Quick
            test_cache_counters_model;
          Alcotest.test_case "a repeated key takes its first binding" `Quick
            test_serve_first_binding;
          Alcotest.test_case "protocol fuzz: one response per line" `Quick
            test_serve_protocol_fuzz;
        ] );
      ( "memory",
        [
          Alcotest.test_case "novel stream evicts, answers stay golden" `Quick
            test_novel_stream_evicts;
          Alcotest.test_case "fresh names and distances grow no other table"
            `Quick test_fresh_names_grow_nothing;
        ] );
    ]
