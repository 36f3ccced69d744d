(* Tests for the observability layer (lib/obs) and its wiring through the
   search engine: JSON serialization, deterministic span trees (fork/join),
   the metrics registry, trace-report aggregation, the structured
   rejection-reason taxonomy, and the acceptance criterion that parallel
   and sequential engine runs produce identical span trees and metric
   totals (timings excluded). *)

open Itf_ir
module Json = Itf_obs.Json
module Tracer = Itf_obs.Tracer
module Metrics = Itf_obs.Metrics
module Report = Itf_obs.Report
module Profile = Itf_obs.Profile
module T = Itf_core.Template
module Legality = Itf_core.Legality
module Boundsmap = Itf_core.Boundsmap
module Sequence = Itf_core.Sequence
module Engine = Itf_opt.Engine
module Search = Itf_opt.Search

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* A deterministic clock: each read returns 0, 1, 2, ... *)
let ticking () =
  let t = ref 0. in
  fun () ->
    let v = !t in
    t := v +. 1.;
    v

(* {1 Json} *)

let test_json_serialize () =
  check_string "escaping"
    {|{"s": "a\"b\\c\nd\u0001", "xs": [1, -2.5, true, null]}|}
    (Json.to_string
       (Json.Obj
          [
            ("s", Json.String "a\"b\\c\nd\001");
            ( "xs",
              Json.List
                [ Json.Int 1; Json.Float (-2.5); Json.Bool true; Json.Null ] );
          ]));
  check_string "integral float keeps the point" "2.0"
    (Json.to_string (Json.Float 2.0));
  check_string "non-finite floats become null" "[null, null]"
    (Json.to_string (Json.List [ Json.Float Float.nan; Json.Float infinity ]))

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.String "engine.step\tx");
        ("n", Json.Int 42);
        ("t", Json.Float 1.5);
        ("ok", Json.Bool false);
        ("none", Json.Null);
        ("kids", Json.List [ Json.Int 0; Json.String "µ☃" ]);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> check_bool "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* numbers without a point or exponent re-parse as Int *)
  check_bool "int stays int" true
    (Json.of_string "7" = Ok (Json.Int 7));
  check_bool "exponent parses as float" true
    (Json.of_string "1e2" = Ok (Json.Float 100.))

(* A random JSON string literal's body: plain runs, raw UTF-8, every
   short escape, [\u] escapes (surrogate pairs whole, unpaired, cut
   short), bad escapes, bad hex digits, and a backslash at the end. *)
let random_string_body rs =
  let b = Buffer.create 64 in
  let hex4 v = Printf.sprintf "%04x" v in
  let piece () =
    match Random.State.int rs 16 with
    | 0 | 1 | 2 | 3 ->
      for _ = 0 to Random.State.int rs 40 do
        Buffer.add_char b (Char.chr (0x20 + Random.State.int rs 95))
      done
    | 4 -> Buffer.add_string b "µ☃ \xf0\x9f\x98\x80"
    | 5 | 6 ->
      Buffer.add_char b '\\';
      Buffer.add_char b "\"\\/nrtbf".[Random.State.int rs 8]
    | 7 -> Buffer.add_string b ("\\u" ^ hex4 (Random.State.int rs 0x10000))
    | 8 ->
      Buffer.add_string b ("\\u" ^ hex4 (0xD800 + Random.State.int rs 0x400));
      Buffer.add_string b ("\\u" ^ hex4 (0xDC00 + Random.State.int rs 0x400))
    | 9 ->
      Buffer.add_string b ("\\u" ^ hex4 (0xD800 + Random.State.int rs 0x400));
      if Random.State.bool rs then
        Buffer.add_string b ("\\u" ^ hex4 (Random.State.int rs 0x10000))
    | 10 -> Buffer.add_string b "\\uD83D\\u00e9"
    | 11 -> Buffer.add_string b "\\u12"
    | 12 -> Buffer.add_string b "\\u12g4"
    | 13 -> Buffer.add_string b ("\\" ^ String.make 1 "xqa0 '".[Random.State.int rs 6])
    | 14 -> Buffer.add_char b (Char.chr (Random.State.int rs 0x20))
    | _ -> Buffer.add_char b (Char.chr (0x80 + Random.State.int rs 0x80))
  in
  for _ = 0 to Random.State.int rs 6 do
    piece ()
  done;
  if Random.State.int rs 20 = 0 then Buffer.add_char b '\\';
  Buffer.contents b

(* [Json.of_string] copies each run of plain string bytes with one blit;
   [Json_oracle] decodes one character at a time. On 10,000 seeded
   documents (a string alone, as a key and value, in a list, closed or
   not) both give the same value or the same error, offset included. *)
let test_json_string_scanner () =
  let rs = Random.State.make [| 39 |] in
  let errors = ref 0 in
  for _ = 1 to 10_000 do
    let lit () =
      let body = random_string_body rs in
      if Random.State.int rs 10 = 0 then "\"" ^ body else "\"" ^ body ^ "\""
    in
    let doc =
      match Random.State.int rs 3 with
      | 0 -> lit ()
      | 1 -> Printf.sprintf "{%s: %s, \"id\": 1}" (lit ()) (lit ())
      | _ -> Printf.sprintf "[%s, %s]" (lit ()) (lit ())
    in
    let expected = Json_oracle.of_string doc in
    if Result.is_error expected then incr errors;
    if Json.of_string doc <> expected then
      Alcotest.failf "%S: %s, oracle %s" doc
        (match Json.of_string doc with
        | Ok v -> Json.to_string v
        | Error e -> e)
        (match expected with Ok v -> Json.to_string v | Error e -> e)
  done;
  (* Both outcomes are well represented. *)
  check_bool "some documents fail" true (!errors > 1_000);
  check_bool "some documents parse" true (!errors < 9_000)

(* [Json.to_string] copies runs and formats numbers without [Printf]:
   on 10,000 seeded values of every kind (strings of any bytes, floats
   from random bits, integral, huge and signed zeros) it writes the
   oracle's bytes. *)
let test_json_serializer_bytes () =
  let rs = Random.State.make [| 391 |] in
  let float () =
    match Random.State.int rs 6 with
    | 0 -> Int64.float_of_bits (Random.State.int64 rs Int64.max_int)
    | 1 -> -.Int64.float_of_bits (Random.State.int64 rs Int64.max_int)
    | 2 -> float_of_int (Random.State.int rs 2_000_000 - 1_000_000)
    | 3 -> Random.State.float rs 1e16 -. 5e15
    | 4 -> Random.State.float rs 1e-3
    | _ -> [| 0.; -0.; 1e15; -1e15; 1e15 -. 1.; 123456789012.4; nan; infinity |].(Random.State.int rs 8)
  in
  let rec value depth =
    match Random.State.int rs (if depth > 2 then 5 else 7) with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Random.State.bool rs)
    | 2 -> Json.Int (Random.State.bits rs - (1 lsl 29))
    | 3 -> Json.Float (float ())
    | 4 ->
      Json.String
        (String.init (Random.State.int rs 40) (fun _ ->
             Char.chr (Random.State.int rs 256)))
    | 5 -> Json.List (List.init (Random.State.int rs 4) (fun _ -> value (depth + 1)))
    | _ ->
      Json.Obj
        (List.init (Random.State.int rs 4) (fun k ->
             (random_string_body rs ^ string_of_int k, value (depth + 1))))
  in
  for _ = 1 to 10_000 do
    let v = value 0 in
    check_string "bytes" (Json_oracle.to_string v) (Json.to_string v)
  done

let test_json_errors_and_accessors () =
  check_bool "trailing garbage rejected" true
    (Result.is_error (Json.of_string "{} x"));
  check_bool "bad literal rejected" true
    (Result.is_error (Json.of_string "treu"));
  let v = Json.Obj [ ("a", Json.Int 3); ("b", Json.String "s") ] in
  check_bool "member" true (Json.member "b" v = Some (Json.String "s"));
  check_bool "member missing" true (Json.member "z" v = None);
  check_bool "to_int" true (Json.to_int (Json.Int 3) = Some 3);
  check_bool "to_float promotes int" true (Json.to_float (Json.Int 3) = Some 3.);
  check_bool "to_str rejects int" true (Json.to_str (Json.Int 3) = None)

(* {1 Tracer} *)

let test_null_tracer () =
  check_bool "disabled" false (Tracer.enabled Tracer.null);
  let evaluated = ref false in
  let v =
    Tracer.span Tracer.null
      ~attrs:(fun () ->
        evaluated := true;
        [])
      "x"
      (fun () -> 42)
  in
  check_int "span is a direct call" 42 v;
  check_bool "attr thunk skipped" false !evaluated;
  check_bool "no roots" true (Tracer.roots Tracer.null = []);
  check_bool "fork of null is disabled" false
    (Tracer.enabled (Tracer.fork Tracer.null))

let test_span_nesting () =
  let tr = Tracer.create ~clock:(ticking ()) () in
  Tracer.span tr
    ~attrs:(fun () -> [ ("k", Tracer.Int 1) ])
    "outer"
    (fun () ->
      Tracer.span tr "inner" (fun () -> ());
      Tracer.add_attrs tr [ ("late", Tracer.Bool true) ]);
  (try Tracer.span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Tracer.roots tr with
  | [ outer; boom ] ->
    check_string "outer name" "outer" outer.Tracer.name;
    check_bool "attrs in order" true
      (outer.Tracer.attrs
      = [ ("k", Tracer.Int 1); ("late", Tracer.Bool true) ]);
    (match outer.Tracer.children with
    | [ inner ] ->
      check_string "child name" "inner" inner.Tracer.name;
      check_float "child duration" 1.0 inner.Tracer.dur_s
    | kids -> Alcotest.failf "expected 1 child, got %d" (List.length kids));
    check_string "span closed on raise" "boom" boom.Tracer.name;
    check_bool "raised span has no children" true (boom.Tracer.children = [])
  | rs -> Alcotest.failf "expected 2 roots, got %d" (List.length rs)

(* Workers fill forked tracers in arbitrary order; join splices them back
   in input order — the determinism guarantee. *)
let test_fork_join () =
  let tr = Tracer.create ~clock:(ticking ()) () in
  let forks = Array.init 3 (fun _ -> Tracer.fork tr) in
  (* fill out of (scheduling) order: 2, 0, 1 *)
  List.iter
    (fun i ->
      Tracer.span forks.(i) (Printf.sprintf "w%d" i) (fun () -> ()))
    [ 2; 0; 1 ];
  Tracer.span tr "parent" (fun () -> Tracer.join tr (Array.to_list forks));
  match Tracer.roots tr with
  | [ parent ] ->
    Alcotest.(check (list string))
      "children in input order" [ "w0"; "w1"; "w2" ]
      (List.map (fun s -> s.Tracer.name) parent.Tracer.children)
  | rs -> Alcotest.failf "expected 1 root, got %d" (List.length rs)

let test_jsonl_ids () =
  let tr = Tracer.create ~clock:(ticking ()) () in
  Tracer.span tr "a" (fun () ->
      Tracer.span tr "b" (fun () -> ());
      Tracer.span tr "c" (fun () -> ()));
  Tracer.span tr "d" (fun () -> ());
  let lines = Tracer.jsonl_lines (Tracer.roots tr) in
  check_int "one line per span" 4 (List.length lines);
  let parsed =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok v -> v
        | Error e -> Alcotest.failf "bad line %S: %s" l e)
      lines
  in
  let field f v = Json.member f v in
  Alcotest.(check (list int))
    "depth-first preorder ids" [ 0; 1; 2; 3 ]
    (List.map (fun v -> Option.get (Option.bind (field "id" v) Json.to_int)) parsed);
  Alcotest.(check (list string))
    "names" [ "a"; "b"; "c"; "d" ]
    (List.map (fun v -> Option.get (Option.bind (field "name" v) Json.to_str)) parsed);
  check_bool "parents" true
    (List.map (fun v -> field "parent" v) parsed
    = [
        Some Json.Null;
        Some (Json.Int 0);
        Some (Json.Int 0);
        Some Json.Null;
      ])

(* A span forest's JSONL records without their timings: what two runs
   that differ only in timing share. *)
let shape roots =
  List.map
    (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj fields) ->
        Json.Obj (List.filter (fun (k, _) -> k <> "start_s" && k <> "dur_s") fields)
      | _ -> Alcotest.failf "unparseable span line %s" line)
    (Tracer.jsonl_lines roots)

let test_equal_shape () =
  let build clock =
    let tr = Tracer.create ~clock () in
    Tracer.span tr
      ~attrs:(fun () -> [ ("k", Tracer.Int 1) ])
      "a"
      (fun () -> Tracer.span tr "b" (fun () -> ()));
    List.hd (Tracer.roots tr)
  in
  let fast = build (ticking ()) in
  let slow =
    build
      (let t = ref 0. in
       fun () ->
         t := !t +. 100.;
         !t)
  in
  check_bool "equal modulo timing" true (shape [ fast ] = shape [ slow ]);
  let tr = Tracer.create ~clock:(ticking ()) () in
  Tracer.span tr
    ~attrs:(fun () -> [ ("k", Tracer.Int 2) ])
    "a"
    (fun () -> Tracer.span tr "b" (fun () -> ()));
  check_bool "attr difference detected" false
    (shape [ fast ] = shape (Tracer.roots tr))

let test_ambient () =
  check_bool "default ambient is null" false (Tracer.enabled (Tracer.ambient ()));
  let tr = Tracer.create () in
  Tracer.with_ambient tr (fun () ->
      check_bool "installed" true (Tracer.enabled (Tracer.ambient ())));
  check_bool "restored" false (Tracer.enabled (Tracer.ambient ()))

(* Installing the tracer that is already ambient is a plain call: restore
   still happens on exceptions and under nesting, and it allocates
   nothing. *)
let test_ambient_reinstall () =
  let tr = Tracer.create () and other = Tracer.create () in
  let is t = Tracer.ambient () == t in
  Tracer.with_ambient tr (fun () ->
      (match
         Tracer.with_ambient tr (fun () ->
             Tracer.with_ambient other (fun () -> failwith "boom"))
       with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "exception swallowed");
      check_bool "restored after a raise through a re-install" true (is tr);
      Tracer.with_ambient tr (fun () ->
          Tracer.with_ambient other (fun () ->
              check_bool "nested install" true (is other));
          check_bool "re-install keeps the outer tracer" true (is tr)));
  check_bool "null restored" true (is Tracer.null);
  let f () = () in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Tracer.with_ambient (Tracer.ambient ()) f
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "1,000 re-installs allocate nothing (%g words)" words)
    true (words = 0.)

(* {1 Metrics} *)

let test_counters () =
  let m = Metrics.create () in
  let c1 = Metrics.counter m ~labels:[ ("b", "2"); ("a", "1") ] "hits" in
  let c2 = Metrics.counter m ~labels:[ ("a", "1"); ("b", "2") ] "hits" in
  Metrics.incr c1;
  Metrics.add c2 4;
  check_int "label order normalized to one instrument" 5
    (Metrics.counter_value c1);
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  check_float "gauge" 2.5 (Metrics.gauge_value g);
  check_bool "kind mismatch rejected" true
    (match Metrics.gauge m "hits" ~labels:[ ("a", "1"); ("b", "2") ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.; 10. |] "h" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 100. ];
  match Option.bind (Json.member "metrics" (Metrics.dump m)) Json.to_list with
  | Some [ entry ] ->
    check_bool "per-bucket counts plus overflow" true
      (Json.member "counts" entry
      = Some (Json.List [ Json.Int 1; Json.Int 1; Json.Int 1 ]))
  | _ -> Alcotest.fail "expected exactly one metric entry"

let test_dump_determinism () =
  (* dump is sorted by name/labels: insertion order must not show *)
  let x = Metrics.create () and y = Metrics.create () in
  Metrics.incr (Metrics.counter x "beta");
  Metrics.incr (Metrics.counter x "alpha");
  Metrics.incr (Metrics.counter y "alpha");
  Metrics.incr (Metrics.counter y "beta");
  check_bool "dump is insertion-order independent" true
    (Metrics.dump x = Metrics.dump y)

(* Registry lookups read a snapshot without the lock. Four domains race
   to create the same 32 labelled counters, each creating 32 names of
   its own in between: every key names one instrument (the domains got
   physically equal handles), every increment lands, and [dump] lists
   each key once. *)
let test_registry_races () =
  let m = Metrics.create () in
  let shared k = Metrics.counter m ~labels:[ ("k", string_of_int k) ] "shared" in
  let rounds = 200 and domains = 4 in
  let ready = Atomic.make 0 in
  let work d () =
    Atomic.incr ready;
    while Atomic.get ready < domains do Domain.cpu_relax () done;
    Array.init 32 (fun k ->
        let own = Metrics.counter m (Printf.sprintf "own.%d.%d" d k) in
        for _ = 1 to rounds do
          Metrics.incr (shared k);
          Metrics.incr own
        done;
        shared k)
  in
  let handles =
    List.map Domain.join (List.init domains (fun d -> Domain.spawn (work d)))
  in
  for k = 0 to 31 do
    let c = shared k in
    check_bool
      (Printf.sprintf "shared %d is one instrument" k)
      true
      (List.for_all (fun h -> h.(k) == c) handles);
    check_int (Printf.sprintf "shared %d total" k) (domains * rounds)
      (Metrics.counter_value c)
  done;
  for d = 0 to domains - 1 do
    for k = 0 to 31 do
      check_int "own total" rounds
        (Metrics.counter_value (Metrics.counter m (Printf.sprintf "own.%d.%d" d k)))
    done
  done;
  let keys =
    match Option.bind (Json.member "metrics" (Metrics.dump m)) Json.to_list with
    | None -> []
    | Some entries ->
      List.map
        (fun e ->
          Json.to_string (Option.get (Json.member "name" e))
          ^ Json.to_string (Option.get (Json.member "labels" e)))
        entries
  in
  check_int "dump lists every key" (32 + (domains * 32)) (List.length keys);
  check_int "dump lists each key once" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_log_linear () =
  check_bool "duration buckets: a 1-2-5 series over 1us..100s" true
    (Metrics.duration_buckets
    = [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 2e4; 5e4;
         1e5; 2e5; 5e5; 1e6; 2e6; 5e6; 1e7; 2e7; 5e7; 1e8 |])

let test_histogram_sum_count () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.; 10. |] "h" in
  check_int "empty count" 0 (Metrics.histogram_count h);
  check_float "empty sum" 0. (Metrics.histogram_sum h);
  List.iter (Metrics.observe h) [ 0.5; 5.; 100. ];
  check_int "count" 3 (Metrics.histogram_count h);
  check_float "sum at 1/1000 resolution" 105.5 (Metrics.histogram_sum h);
  (* the dump carries count and sum alongside the bucket counts *)
  match Option.bind (Json.member "metrics" (Metrics.dump m)) Json.to_list with
  | Some [ entry ] ->
    check_bool "dump count" true (Json.member "count" entry = Some (Json.Int 3));
    check_bool "dump sum" true
      (Json.member "sum" entry = Some (Json.Float 105.5))
  | _ -> Alcotest.fail "expected exactly one metric entry"

(* Exact quantile values on a synthetic fill: 10 observations <= 1 and 10
   in (1, 2], over buckets [1; 2; 5; 10]. Linear interpolation inside the
   holding bucket (lower edge 0 for the first) makes every value
   computable by hand. *)
let test_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.; 2.; 5.; 10. |] "q" in
  for _ = 1 to 10 do Metrics.observe h 0.5 done;
  for _ = 1 to 10 do Metrics.observe h 1.5 done;
  let q p = Option.get (Metrics.quantile h p) in
  check_float "p50 = top of the first bucket" 1.0 (q 0.5);
  check_float "p75 interpolates the second bucket" 1.5 (q 0.75);
  check_float "p100 = top of the holding bucket" 2.0 (q 1.0);
  check_float "q clamps below" (q 0.) (Option.get (Metrics.quantile h (-1.)));
  (* monotone in q *)
  let qs = List.map q [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ] in
  check_bool "monotone in q" true
    (List.for_all2 (fun a b -> a <= b) qs (List.tl qs @ [ infinity ]));
  (* empty histogram has no quantiles *)
  let e = Metrics.histogram m ~buckets:[| 1. |] "empty" in
  check_bool "empty -> None" true (Metrics.quantile e 0.5 = None);
  (* a rank landing in the overflow bucket saturates at the last bound *)
  let o = Metrics.histogram m ~buckets:[| 1.; 2. |] "overflow" in
  Metrics.observe o 100.;
  check_float "overflow saturates" 2.0 (Option.get (Metrics.quantile o 0.99));
  (* the pure-function form agrees with the live registry *)
  check_bool "quantile_of_counts agrees" true
    (Metrics.quantile_of_counts ~buckets:[| 1.; 2.; 5.; 10. |]
       ~counts:[| 10; 10; 0; 0; 0 |] 0.75
    = Some 1.5)

let test_dump_prometheus () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m ~labels:[ ("status", "ok") ] "serve.requests");
  Metrics.set (Metrics.gauge m "serve.cache.size") 3.;
  let h = Metrics.histogram m ~buckets:[| 1.; 2. |] "serve.request_us" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 9. ];
  let text = Metrics.dump_prometheus m in
  List.iter
    (fun sub ->
      check_bool (Printf.sprintf "exposition carries %S" sub) true
        (Builders.contains ~sub text))
    [
      "# TYPE serve_requests counter";
      "serve_requests{status=\"ok\"} 1";
      "# TYPE serve_cache_size gauge";
      "serve_cache_size 3";
      "# TYPE serve_request_us histogram";
      "serve_request_us_bucket{le=\"1\"} 1";
      "serve_request_us_bucket{le=\"2\"} 2";
      "serve_request_us_bucket{le=\"+Inf\"} 3";
      "serve_request_us_sum 11";
      "serve_request_us_count 3";
    ];
  check_bool "no unsanitized names" true
    (not (Builders.contains ~sub:"serve.request" text))

(* {1 Head sampling} *)

let test_head_keep () =
  let fps = List.init 1000 (Printf.sprintf "fp-%d") in
  check_bool "rate 1 keeps everything" true
    (List.for_all (fun fp -> Tracer.head_keep ~sample_rate:1. ~fingerprint:fp) fps);
  check_bool "rate 0 keeps nothing" true
    (List.for_all
       (fun fp -> not (Tracer.head_keep ~sample_rate:0. ~fingerprint:fp))
       fps);
  (* deterministic: the same fingerprint always answers the same *)
  check_bool "deterministic" true
    (List.for_all
       (fun fp ->
         Tracer.head_keep ~sample_rate:0.3 ~fingerprint:fp
         = Tracer.head_keep ~sample_rate:0.3 ~fingerprint:fp)
       fps);
  (* monotone: kept at a low rate implies kept at any higher rate *)
  check_bool "kept set grows with the rate" true
    (List.for_all
       (fun fp ->
         (not (Tracer.head_keep ~sample_rate:0.2 ~fingerprint:fp))
         || Tracer.head_keep ~sample_rate:0.7 ~fingerprint:fp)
       fps);
  (* the keep fraction tracks the rate (FNV-1a spreads well enough that
     0.3 of 1000 fingerprints lands in [200, 400]) *)
  let kept =
    List.length
      (List.filter (fun fp -> Tracer.head_keep ~sample_rate:0.3 ~fingerprint:fp) fps)
  in
  check_bool
    (Printf.sprintf "keep fraction ~ rate (kept %d of 1000 at 0.3)" kept)
    true
    (kept >= 200 && kept <= 400)

(* {1 Profile} *)

(* A hand-built tree under the ticking clock: a { b; b } gives a
   total 5, self 3 (two unit-long children), b count 2, total 2, self 2 —
   and the in-memory and JSONL paths agree row for row. *)
let test_profile_self_time () =
  let tr = Tracer.create ~clock:(ticking ()) () in
  Tracer.span tr "a" (fun () ->
      Tracer.span tr "b" (fun () -> ());
      Tracer.span tr "b" (fun () -> ()));
  let roots = Tracer.roots tr in
  let rows = Profile.of_spans roots in
  (match rows with
  | [ ra; rb ] ->
    check_string "sorted by self time" "a" ra.Profile.name;
    check_int "a count" 1 ra.Profile.count;
    check_float "a total" 5.0 ra.Profile.total_s;
    check_float "a self" 3.0 ra.Profile.self_s;
    check_string "b second" "b" rb.Profile.name;
    check_int "b count" 2 rb.Profile.count;
    check_float "b total" 2.0 rb.Profile.total_s;
    check_float "b self" 2.0 rb.Profile.self_s
  | rs -> Alcotest.failf "expected 2 rows, got %d" (List.length rs));
  (match Profile.of_lines (Tracer.jsonl_lines roots) with
  | Error e -> Alcotest.failf "of_lines failed: %s" e
  | Ok rows' -> check_bool "of_lines == of_spans" true (rows = rows'));
  check_int "top truncates" 1 (List.length (Profile.top 1 rows));
  (* rendering smoke: the self% column exists and rows carry their share *)
  let text = Format.asprintf "%a" Profile.pp rows in
  check_bool "table renders self%" true (Builders.contains ~sub:"self%" text)

(* {1 Report} *)

let test_report_rows () =
  let tr = Tracer.create ~clock:(ticking ()) () in
  Tracer.span tr "a" (fun () -> Tracer.span tr "b" (fun () -> ()));
  let lines = Tracer.jsonl_lines (Tracer.roots tr) in
  match Report.of_lines lines with
  | Error e -> Alcotest.failf "report failed: %s" e
  | Ok rows ->
    Alcotest.(check (list string))
      "sorted by total time" [ "a"; "b" ]
      (List.map (fun r -> r.Report.name) rows);
    let a = List.hd rows and b = List.nth rows 1 in
    check_int "a count" 1 a.Report.count;
    check_float "a total" 3.0 a.Report.total_s;
    check_float "a self = total - children" 2.0 a.Report.self_s;
    check_float "b total" 1.0 b.Report.total_s;
    check_float "b self" 1.0 b.Report.self_s

let test_report_counters () =
  let tr = Tracer.create ~clock:(ticking ()) () in
  Tracer.span tr
    ~attrs:(fun () -> [ ("hits", Tracer.Int 2); ("note", Tracer.String "x") ])
    "a"
    (fun () -> ());
  Tracer.span tr
    ~attrs:(fun () -> [ ("hits", Tracer.Int 3) ])
    "a"
    (fun () -> ());
  match Report.counters (Tracer.jsonl_lines (Tracer.roots tr)) with
  | Error e -> Alcotest.failf "counters failed: %s" e
  | Ok cs ->
    check_bool "int attrs summed per span.attr, strings ignored" true
      (cs = [ ("a.hits", 5) ])

let test_report_malformed () =
  let good =
    let tr = Tracer.create ~clock:(ticking ()) () in
    Tracer.span tr "a" (fun () -> ());
    Tracer.jsonl_lines (Tracer.roots tr)
  in
  match Report.of_lines (good @ [ "{not json" ]) with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error e ->
    check_bool
      (Printf.sprintf "error names the line (%s)" e)
      true
      (Builders.contains ~sub:"line 2" e)

(* Satellite: the metrics-file table renders count, sum, mean and the
   quantile columns for histograms, straight from the dumped bucket
   counts. *)
let test_report_metrics_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.; 2.; 5.; 10. |] "lat" in
  for _ = 1 to 10 do Metrics.observe h 0.5 done;
  for _ = 1 to 10 do Metrics.observe h 1.5 done;
  let text = Format.asprintf "%a" Report.pp_metrics_file (Metrics.dump m) in
  List.iter
    (fun sub ->
      check_bool (Printf.sprintf "renders %S" sub) true
        (Builders.contains ~sub text))
    [ "count=20"; "sum=20"; "mean=1"; "p50=1"; "p90="; "p99=" ]

(* {1 Rejection-reason taxonomy}

   Each constructor is exercised through the public entry points that
   produce it; [Unbounded_space] (whose trigger needs a pathological
   Fourier-Motzkin corner) is covered at the unit level. The suite as a
   whole must surface at least six distinct reason labels. *)

let reject_labels nest seq =
  match Legality.reasons (Legality.check nest seq) with
  | [] -> Alcotest.fail "expected a rejection"
  | rs -> List.map Legality.reason_label rs

let test_reason_taxonomy () =
  let seen = ref [] in
  let note l = seen := l :: !seen in
  (* Depth_mismatch: a 2-deep template against the 3-deep matmul nest. *)
  let bm = Itf_bounds.Bmat.of_nest (Builders.matmul ()) in
  (match Boundsmap.check bm (T.interchange ~n:2 0 1) with
  | [ v ] ->
    (match v.Boundsmap.reason with
    | Boundsmap.Depth_mismatch { expected = 2; actual = 3 } ->
      note (Boundsmap.reason_label v.Boundsmap.reason);
      check_bool "depth message" true
        (Builders.contains
           ~sub:"] template expects a 2-deep nest but the nest is 3 deep"
           (Format.asprintf "%a" Boundsmap.pp_violation v))
    | r -> Alcotest.failf "wrong reason: %s" (Boundsmap.reason_label r))
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* Bound_type_exceeds: interchanging a triangular nest moves a
     loop-dependent bound outward (paper Table 4's precondition). *)
  (match reject_labels (Builders.triangular ()) [ T.interchange ~n:2 0 1 ] with
  | l :: _ ->
    check_string "triangular interchange" "bound-type" l;
    note l
  | [] -> assert false);
  (* Non_constant_step: a symbolic step defeats the unimodular family. *)
  let symstep =
    Nest.make
      [
        Nest.loop "i" Expr.one (Expr.var "n");
        Nest.loop ~step:(Expr.var "s") "j" Expr.one (Expr.var "n");
      ]
      [ Builders.st "a" [ Builders.i_; Builders.j_ ] Builders.i_ ]
  in
  (match reject_labels symstep [ T.skew ~n:2 ~src:0 ~dst:1 ~factor:1 ] with
  | l :: _ ->
    check_string "symbolic step" "non-constant-step" l;
    note l
  | [] -> assert false);
  (* Codegen_rejected: a zero step passes the published preconditions
     (it is a compile-time constant) but code generation rejects it. *)
  let zerostep =
    Nest.make
      [
        Nest.loop "i" (Expr.int 1) (Expr.int 4);
        Nest.loop ~step:(Expr.int 0) "j" (Expr.int 1) (Expr.int 4);
      ]
      [ Builders.st "a" [ Builders.i_; Builders.j_ ] Builders.i_ ]
  in
  (match Legality.reasons (Legality.check zerostep [ T.skew ~n:2 ~src:0 ~dst:1 ~factor:1 ]) with
  | [ Legality.Precondition { violation; _ } ] ->
    (match violation.Boundsmap.reason with
    | Boundsmap.Codegen_rejected { message } ->
      check_bool "codegen message kept" true
        (Builders.contains ~sub:"zero step" message);
      note (Boundsmap.reason_label violation.Boundsmap.reason)
    | r -> Alcotest.failf "wrong reason: %s" (Boundsmap.reason_label r))
  | _ -> Alcotest.fail "expected a single codegen precondition rejection");
  (* Lex_negative: a (1,-1) dependence flips lex-negative under
     interchange (paper Section 3.2). *)
  let antidiag =
    Nest.make
      [
        Nest.loop "i" (Expr.int 2) (Expr.var "n");
        Nest.loop "j" Expr.one (Expr.var "n");
      ]
      [
        Builders.st "a"
          [ Builders.i_; Builders.j_ ]
          (Builders.ld "a"
             [
               Expr.sub Builders.i_ Expr.one; Expr.add Builders.j_ Expr.one;
             ]);
      ]
  in
  (match Legality.reasons (Legality.check antidiag [ T.interchange ~n:2 0 1 ]) with
  | [ (Legality.Lex_negative _ as r) ] ->
    check_string "antidiagonal interchange" "lex-negative"
      (Legality.reason_label r);
    note (Legality.reason_label r)
  | _ -> Alcotest.fail "expected a dependence rejection");
  (* Unbounded_space: unit-level (message and label). *)
  let v =
    {
      Boundsmap.template = "Unimodular";
      reason = Boundsmap.Unbounded_space { direction = "below" };
    }
  in
  check_string "unbounded message"
    "[Unimodular] transformed iteration space unbounded in below"
    (Format.asprintf "%a" Boundsmap.pp_violation v);
  note (Boundsmap.reason_label v.Boundsmap.reason);
  let distinct = List.sort_uniq String.compare !seen in
  check_bool
    (Printf.sprintf "at least 6 distinct reason labels (got %d: %s)"
       (List.length distinct)
       (String.concat ", " distinct))
    true
    (List.length distinct >= 6)

(* {1 Engine provenance and determinism} *)

(* Every Engine-reachable rejection carries a structured cause; metric
   counters agree with the provenance list. *)
let test_engine_provenance () =
  let metrics = Metrics.create () in
  let objective = Search.cache_misses ~params:[ ("n", 8) ] () in
  match
    Engine.search ~beam:4 ~steps:1 ~domains:1 ~metrics ~provenance:true
      (Builders.matmul ()) objective
  with
  | None -> Alcotest.fail "engine returned nothing"
  | Some o ->
    check_bool "some candidates were rejected" true (o.Engine.rejections <> []);
    List.iter
      (fun r ->
        check_bool "every rejection carries labels" true
          (Builders.cause_labels r.Engine.cause <> []))
      o.Engine.rejections;
    (* the legality.rejections{reason=...} counters cover the list *)
    let counted =
      match Option.bind (Json.member "metrics" (Metrics.dump metrics)) Json.to_list with
      | None -> 0
      | Some entries ->
        List.fold_left
          (fun acc e ->
            match (Json.member "name" e, Json.member "value" e) with
            | Some (Json.String "legality.rejections"), Some (Json.Int v) ->
              acc + v
            | _ -> acc)
          0 entries
    in
    check_bool
      (Printf.sprintf "rejection counters (%d) cover the provenance list (%d)"
         counted
         (List.length o.Engine.rejections))
      true
      (counted >= List.length o.Engine.rejections);
    (* Stats.record folded the search record into the same registry *)
    check_int "engine.nodes_explored counter matches stats"
      o.Engine.stats.Itf_opt.Stats.nodes_explored
      (Metrics.counter_value (Metrics.counter metrics "engine.nodes_explored"));
    (match Json.of_string (Json.to_string (Itf_opt.Stats.to_json_value o.Engine.stats)) with
    | Error e -> Alcotest.failf "stats json unparseable: %s" e
    | Ok v ->
      check_bool "stats json carries nodes_explored" true
        (Option.bind (Json.member "nodes_explored" v) Json.to_int
        = Some o.Engine.stats.Itf_opt.Stats.nodes_explored))

(* A legal candidate whose objective is NaN is kept as [Unscoreable]. *)
let test_engine_unscoreable () =
  let root = Builders.matmul () in
  let nan_after_root (result : Itf_core.Framework.result) =
    if Itf_ir.Nest.equal result.Itf_core.Framework.nest root then 1.0
    else Float.nan
  in
  match
    Engine.search ~beam:4 ~steps:1 ~domains:1 ~provenance:true root
      nan_after_root
  with
  | None -> Alcotest.fail "root evaluation is scoreable"
  | Some o ->
    check_float "identity wins" 1.0 o.Engine.score;
    check_bool "unscoreable causes recorded" true
      (List.exists
         (fun r -> r.Engine.cause = Engine.Unscoreable)
         o.Engine.rejections);
    check_bool "unscoreable label" true
      (List.exists
         (fun r -> Builders.cause_labels r.Engine.cause = [ "unscoreable" ])
         o.Engine.rejections)

(* The acceptance criterion: a parallel run produces the same span tree
   and the same metric totals as a sequential one. Timing-valued entries
   (the engine.domains gauge, the engine.total_time_ms histogram) are the
   only legitimate differences, so the comparison filters to counters.
   Each run renames matmul's arrays, so both are cold: the shared-work
   counters ([core.families.built], [core.refs.*]) count a cold search's
   work only, and a search warmed by an earlier one reads 0 there. *)
let counter_entries m =
  match Option.bind (Json.member "metrics" (Metrics.dump m)) Json.to_list with
  | None -> []
  | Some entries ->
    List.filter
      (fun e -> Json.member "type" e = Some (Json.String "counter"))
      entries

let test_engine_seq_par_observability () =
  let run domains =
    let nest =
      Itf_lang.Parser.parse_nest
        (Printf.sprintf
           "do i = 1, n\n\
           \  do j = 1, n\n\
           \    do k = 1, n\n\
           \      a%d(i, j) = a%d(i, j) + b%d(i, k) * c%d(k, j)\n\
           \    enddo\n\
           \  enddo\n\
            enddo\n"
           domains domains domains domains)
    in
    let tracer = Tracer.create () in
    let metrics = Metrics.create () in
    (* [~memo:false]: the objective memo is process-wide, so the first run
       would warm it and the second run's simulator spans/counters would
       (correctly) disappear behind memo hits. This test isolates domain
       scheduling, so it opts out; test_intern covers winner/provenance
       identity with memoization on. *)
    let objective =
      Search.cache_misses ~metrics ~memo:false ~params:[ ("n", 8) ] ()
    in
    match
      Engine.search ~beam:4 ~steps:2 ~domains ~tracer ~metrics
        ~provenance:true nest objective
    with
    | None -> Alcotest.fail "engine returned nothing"
    | Some o -> (o, Tracer.roots tracer, metrics)
  in
  let o1, roots1, m1 = run 1 in
  let o3, roots3, m3 = run 3 in
  check_float "same score" o1.Engine.score o3.Engine.score;
  check_bool "same canonical winner" true
    (Sequence.compare o1.Engine.canonical o3.Engine.canonical = 0);
  check_int "same forest size" (List.length roots1) (List.length roots3);
  check_bool "identical span trees (modulo timing)" true
    (shape roots1 = shape roots3);
  check_bool "identical counter totals" true
    (counter_entries m1 = counter_entries m3);
  check_bool "identical rejection provenance" true
    (List.length o1.Engine.rejections = List.length o3.Engine.rejections
    && List.for_all2
         (fun a b ->
           Sequence.compare a.Engine.candidate b.Engine.candidate = 0
           && Builders.cause_labels a.Engine.cause
              = Builders.cause_labels b.Engine.cause)
         o1.Engine.rejections o3.Engine.rejections);
  (* sanity: the trace actually covers the interesting phases *)
  let rec names acc s =
    List.fold_left names (s.Tracer.name :: acc) s.Tracer.children
  in
  let all = List.concat_map (fun r -> names [] r) roots1 in
  List.iter
    (fun n ->
      check_bool (n ^ " span present") true (List.mem n all))
    [
      "engine.search"; "engine.step"; "engine.expand"; "engine.legality";
      "engine.exact"; "engine.merge"; "engine.candidate";
      "engine.objective"; "memsim.run";
    ]

(* Shared work is counted exactly at any domain count: a family or a
   reference-form cell that two domains fill at once is stored by one
   compare-and-set, and the domain that loses counts nothing. Each search
   renames LU's array, so each is cold; the counts at two domains must
   equal those at one, run after run, with the screen open (the
   legality-only race) and closed (reference forms too). *)
let test_shared_work_domains () =
  let runs = ref 0 in
  let shared_work r domains =
    incr runs;
    let a = Printf.sprintf "sw%d_a" !runs in
    let nest =
      Itf_lang.Parser.parse_nest
        (Printf.sprintf
           "do k = 1, n\n\
           \  do i = k + 1, n\n\
           \    do j = k + 1, n\n\
           \      %s(i, j) = %s(i, j) - %s(i, k) * %s(k, j)\n\
           \    enddo\n\
           \  enddo\n\
            enddo\n"
           a a a a)
    in
    match Itf_opt.Request.run ~domains r nest with
    | None -> Alcotest.fail "no outcome"
    | Some o ->
      let s = o.Engine.stats in
      Itf_opt.Stats.
        [ s.families_built; s.refs_inherited; s.refs_mapped; s.refs_computed ]
        @ Array.to_list s.codegen
  in
  List.iter
    (fun (objective, exact_topk) ->
      let r =
        { Itf_opt.Request.default with objective; params = [ ("n", 16) ]; steps = 3; exact_topk }
      in
      let one = shared_work r 1 in
      for _ = 1 to 4 do
        Alcotest.(check (list int))
          (Printf.sprintf "%s, exact_topk %d: domains 2 == domains 1" objective exact_topk)
          one (shared_work r 2)
      done)
    [ ("parallel", 0); ("locality", Itf_opt.Request.default.exact_topk) ]

(* Stream counters and the memsim.run span's path: a matmul search
   replays innermost loops as address streams, a figure2 search (its
   guard reads b) runs every simulation on values. *)
let test_memsim_stream_observability () =
  let run nest =
    let tracer = Tracer.create () in
    let metrics = Metrics.create () in
    let objective =
      Search.cache_misses ~metrics ~memo:false ~params:[ ("n", 8) ] ()
    in
    (match
       Engine.search ~beam:4 ~steps:2 ~domains:1 ~tracer ~metrics nest objective
     with
    | None -> Alcotest.fail "engine returned nothing"
    | Some _ -> ());
    let count name = Metrics.counter_value (Metrics.counter metrics name) in
    let rec paths acc (s : Tracer.span) =
      let acc =
        if s.Tracer.name = "memsim.run" then
          match List.assoc_opt "path" s.Tracer.attrs with
          | Some (Tracer.String p) -> p :: acc
          | _ -> "(none)" :: acc
        else acc
      in
      List.fold_left paths acc s.Tracer.children
    in
    ( count "memsim.runs",
      count "memsim.stream.entries",
      count "memsim.stream.fallbacks",
      List.sort_uniq compare (List.concat_map (paths []) (Tracer.roots tracer)) )
  in
  let runs, entries, _, paths = run (Builders.matmul ()) in
  check_bool "matmul ran the simulator" true (runs > 0);
  check_bool "matmul records stream entries" true (entries > 0);
  check_bool "matmul spans take the stream path" true (paths = [ "stream" ]);
  let runs, entries, fallbacks, paths = run (Builders.figure2 ()) in
  check_bool "figure2 ran the simulator" true (runs > 0);
  check_int "figure2 records no stream entry" 0 entries;
  check_int "figure2 records no fallback" 0 fallbacks;
  check_bool "figure2 spans take the values path" true (paths = [ "values" ])

(* The --stats text of a declaration, its value spelled as [pp] does. *)
let stat_fragment (st : Itf_opt.Stats.stat) v =
  let t = match st.text with Line t | Join t | Above t -> t in
  let i = String.index t '{' in
  String.sub t 0 i ^ v ^ String.sub t (i + 2) (String.length t - i - 2)

(* Every statistic is one ledger declaration, and --stats-json, --stats
   and the registry agree on each, on a locality and a parallel search. *)
let test_stats_ledger () =
  let open Itf_opt.Stats in
  List.iter
    (fun objective ->
      let metrics = Metrics.create () in
      let r =
        { Itf_opt.Request.default with objective; params = [ ("n", 16) ]; steps = 2 }
      in
      let s =
        match Itf_opt.Request.run ~domains:1 ~metrics r (Builders.matmul ()) with
        | Some o -> o.Engine.stats
        | None -> Alcotest.fail "no outcome"
      in
      let fields =
        match to_json_value ~metrics s with
        | Json.Obj fields -> fields
        | _ -> Alcotest.fail "stats JSON is not an object"
      in
      Alcotest.(check (list string))
        (objective ^ ": the JSON keys are the ledger's")
        (List.map (fun st -> st.key) ledger)
        (List.map fst fields);
      let fragments =
        List.map
          (fun st ->
            let name = objective ^ ": " ^ st.key in
            let v = List.assoc st.key fields in
            let histogram ?labels h =
              Metrics.histogram metrics ?labels ~buckets:Metrics.duration_buckets h
            in
            let observed scale h x =
              check_int (name ^ " observed once") 1 (Metrics.histogram_count h);
              check_bool (name ^ " observed") true
                (Float.abs (Metrics.histogram_sum h -. (x *. scale)) <= 1e-3)
            in
            (match (st.source, v) with
            | Count (_, names), Json.Int n ->
              List.iter
                (fun m ->
                  check_int (name ^ " as " ^ m) n
                    (Metrics.counter_value (Metrics.counter metrics m)))
                names
            | Read m, Json.Int n ->
              check_int (name ^ " read from " ^ m) n
                (Metrics.counter_value (Metrics.counter metrics m))
            | Setting (_, g), Json.Int n ->
              check_float name (float n) (Metrics.gauge_value (Metrics.gauge metrics g))
            | Phase (_, p), Json.Float x ->
              observed 1e6 (histogram ~labels:[ ("phase", p) ] "engine.phase_us") x
            | Time (_, Some h), Json.Float x -> observed 1e3 (histogram h) x
            | Templates (_, m), Json.Obj kvs ->
              Array.iter
                (fun template ->
                  check_int
                    (name ^ " as " ^ m ^ "{" ^ template ^ "}")
                    (match List.assoc_opt template kvs with
                    | Some (Json.Int n) -> n
                    | _ -> 0)
                    (Metrics.counter_value
                       (Metrics.counter metrics ~labels:[ ("template", template) ] m)))
                Itf_core.Template.kinds
            | Shared _, Json.Int _ | Time (_, None), Json.Float _ -> ()
            | _ -> Alcotest.failf "%s: a value of the wrong kind" name);
            let shown =
              match v with
              | Json.Float x -> Printf.sprintf "%.3f" x
              | Json.Obj [] -> "none"
              | Json.Obj kvs ->
                String.concat ", "
                  (List.map (fun (k, n) -> k ^ " " ^ Json.to_string n) kvs)
              | v -> Json.to_string v
            in
            (st, stat_fragment st shown))
          ledger
      in
      let lines =
        String.split_on_char '\n' (Format.asprintf "%a" (pp ~metrics) s)
      in
      List.iter
        (fun (st, f) ->
          check_bool
            (Printf.sprintf "%s: %s is on its --stats line" objective st.key)
            true
            (List.exists (Builders.contains ~sub:f) lines))
        fragments;
      (* Each line is an opening declaration's text and then joined ones. *)
      let openers, joins =
        List.partition_map
          (fun (st, f) -> match st.text with Join _ -> Right f | _ -> Left f)
          fragments
      in
      check_int (objective ^ ": one --stats line per opening declaration")
        (List.length openers) (List.length lines);
      let rec made_of fs rest =
        rest = ""
        || List.exists
             (fun f ->
               String.starts_with ~prefix:f rest
               && made_of joins
                    (String.sub rest (String.length f)
                       (String.length rest - String.length f)))
             fs
      in
      List.iter
        (fun line ->
          check_bool ("a --stats line of the ledger: " ^ line) true
            (made_of openers line))
        lines)
    [ "locality"; "parallel" ]

(* [engine.cache.hit] counts each candidate the cross-step cache answered
   once, whether its entry was scored, only checked, or failed: the
   [legality_cache_hits] count. *)
let test_cache_hit_counts_candidates () =
  let metrics = Metrics.create () and tracer = Tracer.create () in
  let r = { Itf_opt.Request.default with params = [ ("n", 16) ]; steps = 3 } in
  let s =
    match Itf_opt.Request.run ~domains:1 ~tracer ~metrics r (Builders.matmul ()) with
    | Some o -> o.Engine.stats
    | None -> Alcotest.fail "no outcome"
  in
  (* Each step span carries its scored and checked hits. *)
  let rec step_hits acc (sp : Tracer.span) =
    let acc =
      match List.assoc_opt "cache_hits" sp.attrs with
      | Some (Tracer.Int n) when sp.name = "engine.step" -> acc + n
      | _ -> acc
    in
    List.fold_left step_hits acc sp.children
  in
  let scored_or_checked = List.fold_left step_hits 0 (Tracer.roots tracer) in
  let scored = s.Itf_opt.Stats.score_cache_hits in
  check_bool "scored hits" true (scored > 0);
  check_bool "checked hits" true (scored_or_checked > scored);
  check_bool "failed hits" true (s.Itf_opt.Stats.legality_cache_hits > scored_or_checked);
  check_int "engine.cache.hit" s.Itf_opt.Stats.legality_cache_hits
    (Metrics.counter_value (Metrics.counter metrics "engine.cache.hit"))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "serialization" `Quick test_json_serialize;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors and accessors" `Quick
            test_json_errors_and_accessors;
          Alcotest.test_case "string scanner matches the oracle" `Quick
            test_json_string_scanner;
          Alcotest.test_case "serializer matches the oracle" `Quick
            test_json_serializer_bytes;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "null tracer" `Quick test_null_tracer;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "fork/join input order" `Quick test_fork_join;
          Alcotest.test_case "jsonl preorder ids" `Quick test_jsonl_ids;
          Alcotest.test_case "equal_shape" `Quick test_equal_shape;
          Alcotest.test_case "ambient tracer" `Quick test_ambient;
          Alcotest.test_case "re-installing the ambient tracer" `Quick
            test_ambient_reinstall;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and labels" `Quick test_counters;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "dump determinism" `Quick test_dump_determinism;
          Alcotest.test_case "log-linear bucket series" `Quick test_log_linear;
          Alcotest.test_case "histogram sum and count" `Quick
            test_histogram_sum_count;
          Alcotest.test_case "quantile estimator" `Quick test_quantiles;
          Alcotest.test_case "prometheus exposition" `Quick
            test_dump_prometheus;
          Alcotest.test_case "racing domains share one instrument per key"
            `Quick test_registry_races;
        ] );
      ( "sampling",
        [ Alcotest.test_case "head_keep" `Quick test_head_keep ] );
      ( "profile",
        [
          Alcotest.test_case "self-time aggregation" `Quick
            test_profile_self_time;
        ] );
      ( "report",
        [
          Alcotest.test_case "row aggregation" `Quick test_report_rows;
          Alcotest.test_case "trace counters" `Quick test_report_counters;
          Alcotest.test_case "malformed input" `Quick test_report_malformed;
          Alcotest.test_case "metrics table quantile columns" `Quick
            test_report_metrics_quantiles;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "reason taxonomy (>= 6 labels)" `Quick
            test_reason_taxonomy;
          Alcotest.test_case "engine rejection provenance" `Quick
            test_engine_provenance;
          Alcotest.test_case "unscoreable candidates" `Quick
            test_engine_unscoreable;
          Alcotest.test_case "memsim stream counters and path" `Quick
            test_memsim_stream_observability;
        ] );
      ( "stats",
        [
          Alcotest.test_case "ledger: --stats-json, --stats and registry agree"
            `Quick test_stats_ledger;
          Alcotest.test_case "engine.cache.hit counts each cached candidate"
            `Quick test_cache_hit_counts_candidates;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel == sequential (spans + metrics)"
            `Quick test_engine_seq_par_observability;
          Alcotest.test_case "shared work: domains 2 == domains 1" `Quick
            test_shared_work_domains;
        ] );
    ]
