(* End-to-end benchmark of [loopt serve].

   bash bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
   bash bench/e2e/run.sh --compare A.json B.json
   bash bench/e2e/run.sh --emit-workload NAME [--seed N] [--count N]

   See bench/e2e/README.md for the workloads, the metrics and the
   compare workflow. *)

module Json = Itf_obs.Json

let out_dir = Replay.out_dir

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let num x = Json.Float x
let obj_of kvs = Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs)

(* ------------------------------------------------------------------ *)
(* Traced replay in a fresh process                                     *)
(* ------------------------------------------------------------------ *)

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with l :: _ -> l | [] -> ""

let traced_replay ~w ~seed (bodies : string option array) =
  let file = Filename.concat out_dir (Printf.sprintf "bodies-%s-s%d.jsonl" (Workload.name w) seed) in
  Out_channel.with_open_bin file (fun oc ->
      Array.iter
        (fun b ->
          output_string oc (Option.value ~default:"" b);
          output_char oc '\n')
        bodies);
  let r, wr = Unix.pipe ~cloexec:true () in
  let args =
    [| Sys.executable_name; "--replay-child"; "--workload"; Workload.name w; "--seed";
       string_of_int seed; "--bodies"; file |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "the traced replay process failed");
  match Json.of_string (last_line out) with
  | Ok j -> j
  | Error e -> failwith ("traced replay result: " ^ e)

let replay_child ~w ~seed ~bodies =
  let server_bodies =
    In_channel.with_open_bin bodies In_channel.input_lines
    |> List.map (fun l -> if l = "" then None else Some l)
    |> Array.of_list
  in
  print_endline (Json.to_string (Replay.run ~w ~seed ~server_bodies))

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

type run = {
  record : Json.t;  (** what the results file keeps *)
  e2e : (string * float) list;
  per_layer : (string * float) list;
  attempted : int;
  failed : int;
}

(* A set-up takes about 0.2 s and varies by a tenth between consecutive
   cycles on a quiet host; the median of nine keeps [setup_s] steady. *)
let setup_cycles = 9

let fields = function Json.Obj kvs -> kvs | _ -> []
let field k j = Option.fold ~none:[] ~some:fields (Json.member k j)

let run_workload ~w ~seed ~seconds ~trace ~nproc =
  let conns = Workload.connections w ~conns:(min 2 nproc) in
  let flags = Workload.server_flags w ~conns:(min 2 nproc) in
  let errors = Load.no_errors () in
  let socket = Filename.concat out_dir (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let log = Filename.concat out_dir ("daemon-" ^ Workload.name w ^ ".log") in
  (* The last daemon set up is the one measured. Each cycle is preceded by
     a probe of the host's speed and scaled by it, as the measured phase's
     windows are. *)
  let setups = ref [] and setup_probes = ref [] in
  let rec cycles k =
    let probe_s = Load.probe () in
    let d, dt = Load.setup_cycle errors ~socket ~log flags in
    setups := dt :: !setups;
    setup_probes := probe_s :: !setup_probes;
    if k = 1 then d
    else begin
      Daemon.stop d;
      cycles (k - 1)
    end
  in
  let d = cycles setup_cycles in
  let warm = Snapshot.take d in
  let keep = if trace then Workload.traced_requests w else 0 in
  let phase =
    Load.run d ~w ~seed ~conns ~seconds ~keep ~rss_at:(Workload.rss_requests w)
      errors
  in
  let final = Snapshot.take d in
  let final_rss_mb = Host.process_peak_rss_mb d.Daemon.pid in
  Daemon.stop d;
  let traced = if trace then traced_replay ~w ~seed phase.Load.bodies else Json.Obj [] in
  let sources = field "per_layer_source" traced in
  let layers_t =
    List.filter_map
      (fun (k, v) ->
        match (Json.to_float v, List.assoc_opt k sources) with
        | Some f, Some (Json.String s) -> Some (k, f, "traced " ^ s)
        | _ -> None)
      (field "per_layer" traced)
  in
  let layers = Snapshot.layer_metrics ~warm ~final @ layers_t in
  let per_layer =
    List.filter_map
      (fun (m : Catalogue.layer) ->
        List.find_opt (fun (k, _, _) -> k = m.lname) layers
        |> Option.map (fun (_, v, src) -> (m.lname, v, src)))
      Catalogue.layers
  in
  let replay_failed = Option.value ~default:0 (Option.bind (List.assoc_opt "failed" (field "checks" traced)) Json.to_int) in
  let setup_raw_s = Quant.median (Array.of_list !setups) in
  let setup_s =
    Quant.median (Array.of_list (List.map2 (fun dt p -> dt /. Load.slowdown p) !setups !setup_probes))
  in
  let e2e = Load.e2e phase @ [ ("peak_rss_mb", phase.peak_rss_mb); ("setup_s", setup_s) ] in
  let attempted = (setup_cycles * Workload.n_hot) + phase.requests + errors.transport in
  let failed = Load.error_count errors + replay_failed in
  let steal = Host.steal_share phase.host_start phase.host_end in
  let lat = Quant.sorted phase.latencies_ms in
  let count = Array.length lat in
  let q p = Quant.quantile_sorted lat p in
  let window (x : Load.window) =
    obj_of
      [
        ("start_s", x.w_start);
        ("end_s", x.w_end);
        ("requests", float_of_int x.w_requests);
        ("cpu_s", x.w_cpu_s);
        ("p50_ms", x.w_p50_ms);
        ("p90_ms", x.w_p90_ms);
        ("probe_s", x.w_probe_s);
      ]
  in
  let record =
    Json.Obj
      ([
         ("workload", Json.String (Workload.name w));
         ("seed", Json.Int seed);
         ("seconds", num seconds);
         ("trace", Json.Bool trace);
         ("connections", Json.Int conns);
         ("server_flags", Json.List (List.map (fun s -> Json.String s) flags));
         ( "host",
           Json.Obj
             [
               ("nproc", Json.Int nproc);
               ("ocaml", Json.String Sys.ocaml_version);
               ("git", Json.String (Host.git_head ()));
               ("loadavg_start", num phase.host_start.loadavg);
               ("loadavg_end", num phase.host_end.loadavg);
               ("steal_share", num steal);
               ("steal_flagged", Json.Bool (steal > Host.steal_flag_threshold));
             ] );
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("error_rate", num (float_of_int failed /. float_of_int (max 1 attempted)));
         ( "errors",
           Json.Obj
             [
               ("non_ok", Json.Int errors.non_ok);
               ("mismatch", Json.Int errors.mismatch);
               ("transport", Json.Int errors.transport);
               ("replay", Json.Int replay_failed);
               ("first", Json.List (List.map (fun s -> Json.String s) errors.first));
             ] );
         ("e2e", obj_of e2e);
         ("per_layer", obj_of (List.map (fun (k, v, _) -> (k, v)) per_layer));
         ("per_layer_source", Json.Obj (List.map (fun (k, _, s) -> (k, Json.String s)) per_layer));
         ( "diagnostics",
           Json.Obj
             [
               ("requests", Json.Int phase.requests);
               ("wall_s", num phase.wall_s);
               ( "unscaled",
                 obj_of
                   (Load.e2e ~raw:true phase @ [ ("setup_s", setup_raw_s) ]) );
               ("rss_read_after_requests", Json.Int phase.rss_requests);
               ("final_peak_rss_mb", num final_rss_mb);
               ("daemon_cpu_s", num phase.cpu_s);
               ( "latency_ms",
                 obj_of
                   [
                     ("count", float_of_int count);
                     ("p50", q 0.5);
                     ("p90", q 0.9);
                     ("p99", q 0.99);
                     ("p99.9", q 0.999);
                     ("beyond_p99", float_of_int (count / 100));
                     ("beyond_p99.9", float_of_int (count / 1000));
                   ] );
               ("windows", Json.List (Array.to_list (Array.map window phase.windows)));
               ("setup_cycles_s", Json.List (List.rev_map num !setups));
               ("setup_probes_s", Json.List (List.rev_map num !setup_probes));
             ] );
       ]
      @
      if trace then
        [ ("traced", Json.Obj (List.filter (fun (k, _) -> k <> "per_layer" && k <> "per_layer_source") (fields traced))) ]
      else [])
  in
  { record; e2e; per_layer = List.map (fun (k, v, _) -> (k, v)) per_layer; attempted; failed }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let append_runs path records =
  let previous =
    if Sys.file_exists path then
      match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok j -> ( match Json.member "runs" j with Some (Json.List l) -> l | _ -> [])
      | Error _ -> []
    else []
  in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc
        (Json.to_string (Json.Obj [ ("schema", Json.Int 1); ("runs", Json.List (previous @ records)) ]));
      output_char oc '\n');
  Sys.rename tmp path

let print_run ~w ~seed ~seconds r =
  Printf.printf "== %s  seed %d, %g s ==\n" (Workload.name w) seed seconds;
  List.iter
    (fun (m : Catalogue.e2e) ->
      match List.assoc_opt m.name r.e2e with
      | Some v -> Printf.printf "  %-32s %14.4f %s\n" m.name v m.unit_
      | None -> ())
    Catalogue.e2e;
  List.iter
    (fun (m : Catalogue.layer) ->
      match List.assoc_opt m.lname r.per_layer with
      | Some v -> Printf.printf "  %-32s %14.4f %s\n" m.lname v m.lunit
      | None -> ())
    Catalogue.layers;
  Printf.printf "  %-32s %14d of %d attempted\n%!" "failed" r.failed r.attempted

let metrics_json kvs unit_of =
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.Obj [ ("value", num v); ("unit", Json.String (unit_of k)) ]))
       kvs)

let result_line ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* Other modes                                                         *)
(* ------------------------------------------------------------------ *)

let emit_workload ~w ~seed ~count =
  Array.iteri
    (fun k tail -> print_endline (Workload.with_id (-(k + 1)) tail))
    (Lazy.force Workload.hot_tails);
  let st = Workload.stream w ~seed in
  let salt = Printf.sprintf "s%d" seed in
  for i = 0 to count - 1 do
    print_endline (Workload.line ~salt i (Workload.nth st i))
  done

(* Record the golden payloads from a fresh daemon, one file per hot
   shape. *)
let record_golden () =
  let socket = Filename.concat out_dir (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let d, conn = Daemon.spawn ~socket ~log:(Filename.concat out_dir "daemon-golden.log") [] in
  Array.iteri
    (fun k tail ->
      let resp = Daemon.request conn (Workload.with_id (-(k + 1)) tail) in
      match Json.of_string resp with
      | Ok j when Json.member "status" j = Some (Json.String "ok") ->
        Out_channel.with_open_bin (Workload.expected_path Workload.hot.(k)) (fun oc ->
            output_string oc (Json.to_string (Workload.strip j));
            output_char oc '\n')
      | _ -> failwith ("not ok: " ^ resp))
    (Lazy.force Workload.hot_tails);
  Daemon.close conn;
  Daemon.stop d

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 1 in
  let out = ref (Filename.concat out_dir "results.json") in
  let compare = ref None and emit = ref "" and count = ref 0 in
  let golden = ref false and child = ref false and bodies = ref "" in
  let a = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  run one workload (default: all four)");
      ("--seed", Arg.Set_int seed, "N  request-stream seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured phase (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  run the traced replay and report per-layer metrics (default 1)");
      ("--out", Arg.Set_string out, "FILE  results file the run records are appended to");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string a; Arg.String (fun b -> compare := Some (!a, b)) ],
        "A.json B.json  compare two results files" );
      ("--emit-workload", Arg.Set_string emit, "NAME  print the JSONL stream of a workload");
      ("--count", Arg.Set_int count, "N  requests --emit-workload prints after the warm-up");
      ("--record-golden", Arg.Set golden, " rewrite bench/e2e/expected/ from a fresh daemon");
      ("--replay-child", Arg.Set child, " (internal) the traced replay process");
      ("--bodies", Arg.Set_string bodies, "FILE  (internal) daemon responses for the replay");
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) "e2e [options]";
  let workload_arg () =
    match Workload.of_name !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  match !compare with
  | Some (a, b) -> exit (Compare.run a b)
  | None ->
    if !emit <> "" then begin
      workload := !emit;
      let w = workload_arg () in
      emit_workload ~w ~seed:!seed
        ~count:(if !count > 0 then !count else Workload.nominal_requests w)
    end
    else if !child then replay_child ~w:(workload_arg ()) ~seed:!seed ~bodies:!bodies
    else begin
      mkdir_p out_dir;
      if !golden then record_golden ()
      else begin
        Catalogue.check_manifest "BENCHMARK.json";
        let nproc = Host.nproc () in
        let workloads = if !workload = "" then Workload.all else [ workload_arg () ] in
        let trace = !trace <> 0 in
        let runs =
          List.map
            (fun w ->
              let r = run_workload ~w ~seed:!seed ~seconds:!seconds ~trace ~nproc in
              print_run ~w ~seed:!seed ~seconds:!seconds r;
              (w, r))
            workloads
        in
        append_runs !out (List.map (fun (_, r) -> r.record) runs);
        let attempted = List.fold_left (fun acc (_, r) -> acc + r.attempted) 0 runs in
        let failed = List.fold_left (fun acc (_, r) -> acc + r.failed) 0 runs in
        let metrics r =
          if trace then metrics_json r.per_layer (fun k -> (Catalogue.find_layer k).lunit)
          else metrics_json r.e2e (fun k -> (Catalogue.find_e2e k).unit_)
        in
        (match runs with
        | [ (_, r) ] -> result_line ~attempted ~failed (metrics r)
        | _ ->
          result_line ~attempted ~failed
            (Json.Obj (List.map (fun (w, r) -> (Workload.name w, metrics r)) runs)));
        if failed > 0 then exit 1
      end
    end
