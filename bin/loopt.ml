(* loopt — command-line driver for the iteration-reordering framework.

   Subcommands:
     loopt show NEST.loop                  parse, analyze and display a nest
     loopt apply NEST.loop SCRIPT.seq      legality-check and transform
     loopt optimize NEST.loop ...          search for a transformation
     loopt run NEST.loop --param n=8       interpret a nest and checksum it
     loopt emit NEST.loop [-s SCRIPT]      emit a standalone C program
     loopt distribute NEST.loop            Allen-Kennedy loop distribution
     loopt trace NEST.loop [-s SCRIPT]     print the iteration-order grid
     loopt fuzz ...                        differential fuzzing harness
     loopt report TRACE [--metrics FILE]   summarize --trace-out/--metrics-out *)

open Cmdliner
module Nest = Itf_ir.Nest
module Depvec = Itf_dep.Depvec

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_nest_file path =
  match Itf_lang.Parser.parse (read_file path) with
  | prog -> Ok prog
  | exception Itf_lang.Parser.Error { line; message } ->
    Error (Printf.sprintf "%s:%d: %s" path line message)
  | exception Sys_error e -> Error e

let parse_script_file ~depth path =
  match Itf_lang.Script.parse ~depth (read_file path) with
  | seq -> Ok seq
  | exception Itf_lang.Script.Error { line; message } ->
    Error (Printf.sprintf "%s:%d: %s" path line message)
  | exception Sys_error e -> Error e


(* Parse [path], apply [script] to its nest if one is given, and hand
   the program and the resulting nest to [k]. Any error is printed and
   the command exits with 1. *)
let with_nest ?script path k =
  let ( let* ) = Result.bind in
  match
    let* prog = parse_nest_file path in
    let nest = prog.Itf_lang.Parser.nest in
    match script with
    | None -> Ok (prog, nest)
    | Some script -> (
      let* seq = parse_script_file ~depth:(Nest.depth nest) script in
      match Itf_core.Legality.check nest seq with
      | Itf_core.Legality.Legal { nest = out; _ } -> Ok (prog, out)
      | verdict ->
        Error
          (Format.asprintf "illegal script: %a" Itf_core.Legality.pp_verdict
             verdict))
  with
  | Ok (prog, nest) -> k prog nest
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1

(* The synthetic arrays of [run], [emit] and [trace]: every array the nest
   touches, at (-2m, 3m) in each subscript with m = max 16 |param|. *)
let synthetic_bounds params nest =
  let m = List.fold_left (fun acc (_, x) -> max acc (abs x)) 16 params in
  List.map
    (fun (a, arity) -> (a, List.init arity (fun _ -> (-2 * m, 3 * m))))
    (Nest.array_arities nest)

(* The parameters and the synthetic arrays, [fill]ed with the emitted C
   program's data or left zero. *)
let synthetic_env ~fill params nest =
  let env = Itf_exec.Env.create () in
  List.iter (fun (v, x) -> Itf_exec.Env.set_scalar env v x) params;
  List.iter
    (fun (a, dims) ->
      Itf_exec.Env.declare_array env a dims;
      if fill then Itf_exec.Env.fill_synthetic (Itf_exec.Env.array_data env a))
    (synthetic_bounds params nest);
  env

(* --param n=32 pairs *)
let param_conv =
  let parse s =
    match String.split_on_char '=' s with
    | [ name; v ] -> (
      match int_of_string_opt v with
      | Some x -> Ok (name, x)
      | None -> Error (`Msg ("bad parameter value: " ^ s)))
    | _ -> Error (`Msg ("expected NAME=VALUE, got " ^ s))
  in
  let print ppf (n, v) = Format.fprintf ppf "%s=%d" n v in
  Arg.conv (parse, print)

(* A name given twice is rejected where the request is checked
   ({!Itf_opt.Request.check}), so every command prints the same message
   and exits 1. *)
let params_arg =
  Arg.(
    value
    & opt_all param_conv []
    & info [ "p"; "param" ] ~docv:"NAME=VALUE"
        ~doc:"Give a value to a symbolic parameter (repeatable, once per name).")

(* [run], [emit] and [trace] take parameters but no search: they check
   them by the search request's rule. *)
let with_params params k =
  match Itf_opt.Request.check { Itf_opt.Request.default with params } with
  | Ok () -> k ()
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    1

let nest_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"NEST" ~doc:"Loop-nest source file.")

(* ------------------------------------------------------------------ *)
(* show                                                                *)
(* ------------------------------------------------------------------ *)

let show_cmd =
  let run nest_path =
    with_nest nest_path @@ fun _ nest ->
      Format.printf "== nest ==@.%a@." Nest.pp nest;
      Format.printf "== dependences ==@.";
      let deps = Itf_dep.Analysis.dependences nest in
      if deps = [] then Format.printf "(none)@."
      else
        List.iter
          (fun d -> Format.printf "%a@." Itf_dep.Analysis.pp_dependence d)
          deps;
      Format.printf "== LB/UB/STEP matrices (paper Fig. 5) ==@.%a@."
        Itf_bounds.Bmat.pp
        (Itf_bounds.Bmat.of_nest nest);
      let depth = Nest.depth nest in
      let vectors = List.map (fun d -> d.Itf_dep.Analysis.vector) deps in
      Format.printf "== queries ==@.";
      Format.printf "parallelizable loops: %s@."
        (match Itf_core.Queries.parallelizable_loops ~depth vectors with
        | [] -> "(none)"
        | ls -> String.concat ", " (List.map string_of_int ls));
      Format.printf "innermost vectorizable: %b@."
        (Itf_core.Queries.vectorizable_innermost ~depth vectors);
      Format.printf "fully permutable 0..%d: %b@." (depth - 1)
        (Itf_core.Queries.fully_permutable ~depth vectors ~i:0 ~j:(depth - 1));
      0
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Parse a nest; print it, its dependence vectors and its bound matrices.")
    Term.(const run $ nest_arg)

(* ------------------------------------------------------------------ *)
(* apply                                                               *)
(* ------------------------------------------------------------------ *)

let script_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"SCRIPT" ~doc:"Transformation-script file.")

let apply_cmd =
  let run nest_path script_path verbose =
    with_nest nest_path @@ fun _ nest ->
      match parse_script_file ~depth:(Nest.depth nest) script_path with
      | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
      | Ok seq -> (
        match Itf_core.Legality.check nest seq with
        | Itf_core.Legality.Legal { nest = out; vectors; stages } ->
          if verbose then
            List.iter
              (fun (s : Itf_core.Legality.stage) ->
                Format.printf "-- before step %d (%s): vectors:"
                  (s.Itf_core.Legality.index + 1)
                  (Itf_core.Template.name s.Itf_core.Legality.template);
                List.iter
                  (fun v -> Format.printf " %a" Depvec.pp v)
                  s.Itf_core.Legality.vectors_before;
                Format.printf "@.")
              stages;
          Format.printf "LEGAL@.== transformed nest ==@.%a@." Nest.pp out;
          Format.printf "== transformed dependence vectors ==@.";
          List.iter (fun v -> Format.printf "%a " Depvec.pp v) vectors;
          Format.printf "@.";
          0
        | verdict ->
          Format.printf "ILLEGAL: %a@." Itf_core.Legality.pp_verdict verdict;
          2)
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-stage dependence vectors.")
  in
  Cmd.v
    (Cmd.info "apply" ~doc:"Apply a transformation script to a nest (legality check + code generation).")
    Term.(const run $ nest_arg $ script_arg $ verbose)

(* ------------------------------------------------------------------ *)
(* optimize                                                            *)
(* ------------------------------------------------------------------ *)

let write_text_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let write_trace tracer = function
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> Itf_obs.Tracer.write_jsonl oc (Itf_obs.Tracer.roots tracer))

let write_metrics metrics = function
  | None -> ()
  | Some path -> (
    match metrics with
    | None -> ()
    | Some m ->
      Itf_opt.Engine.record_tables m;
      write_text_file path (Itf_obs.Json.to_string (Itf_obs.Metrics.dump m) ^ "\n"))

let optimize_cmd =
  let run nest_path objective params procs steps domains exact_topk tier0_only
      deadline_ms max_nodes show_stats stats_json explain trace_out
      metrics_out =
    with_nest nest_path @@ fun _ nest ->
      let tracer =
        if trace_out = None then Itf_obs.Tracer.null
        else Itf_obs.Tracer.create ()
      in
      let metrics =
        if metrics_out = None && not (show_stats || stats_json) then None
        else Some (Itf_obs.Metrics.create ())
      in
      let req =
        {
          Itf_opt.Request.default with
          objective;
          params;
          procs;
          steps;
          exact_topk;
          tier0_only;
          deadline_ms;
          max_nodes;
        }
      in
      (match Itf_opt.Request.check req with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1);
      match
        Itf_opt.Request.run ?domains ~tracer ?metrics ~provenance:explain req
          nest
      with
      | None ->
        Printf.eprintf "error: nest could not be scored\n";
        1
      | Some
          {
            Itf_opt.Engine.sequence;
            result;
            score;
            stats;
            completion;
            rejections;
            decisions;
            _;
          } ->
        Format.printf "explored %d candidate sequences@."
          stats.Itf_opt.Stats.nodes_explored;
        (match completion with
        | Itf_opt.Engine.Complete -> ()
        | Itf_opt.Engine.Degraded { cut } ->
          Format.printf
            "DEGRADED: budget expired at %s; best found before the cut:@." cut);
        Format.printf "== best sequence (score %.1f) ==@." score;
        if sequence = [] then Format.printf "(identity)@."
        else Format.printf "%a@." Itf_core.Sequence.pp sequence;
        Format.printf "== transformed nest ==@.%a@." Nest.pp
          result.Itf_core.Framework.nest;
        if explain then begin
          Format.printf "== rejected candidates (%d) ==@."
            (List.length rejections);
          List.iter
            (fun { Itf_opt.Engine.candidate; cause } ->
              Format.printf "@[<hov 2>%a:@ %a@]@." Itf_core.Sequence.pp
                candidate Itf_opt.Engine.pp_cause cause)
            rejections;
          if decisions <> [] then begin
            Format.printf "== tier-0 screening (%d legal candidates) ==@."
              (List.length decisions);
            List.iter
              (fun (d : Itf_opt.Engine.decision) ->
                Format.printf "@[<hov 2>%a:@ score %.1f, bound %.1f -> %s@]@."
                  Itf_core.Sequence.pp d.Itf_opt.Engine.candidate
                  d.Itf_opt.Engine.tier0_score d.Itf_opt.Engine.tier0_bound
                  (Itf_opt.Engine.verdict_label d.Itf_opt.Engine.verdict))
              decisions
          end
        end;
        let count name =
          match metrics with
          | None -> 0
          | Some m ->
            Itf_obs.Metrics.counter_value (Itf_obs.Metrics.counter m name)
        in
        if show_stats then begin
          Format.printf "== search stats ==@.%a@." Itf_opt.Stats.pp stats;
          (* Innermost-loop entries the cache simulations replayed as
             address streams, and entries they ran through closures. *)
          Format.printf "memsim stream        %d entries, %d fallbacks@."
            (count "memsim.stream.entries")
            (count "memsim.stream.fallbacks");
          (* Cache simulations run, and locality evaluations answered by
             the root's footprint certificate instead. *)
          Format.printf "memsim runs          %d simulated, %d certified@."
            (count "memsim.runs") (count "memsim.certified");
          (* Fourier–Motzkin refutations of the root's dependence
             analysis: none when the analysis was memoized. *)
          Format.printf "dependence FM calls  %d@." (count "dep.fm_calls")
        end;
        if stats_json then
          print_endline
            (Itf_obs.Json.to_string
               (match Itf_opt.Stats.to_json_value stats with
               | Itf_obs.Json.Obj fields ->
                 Itf_obs.Json.Obj
                   (fields
                   @ [
                       ("memsim_runs", Itf_obs.Json.Int (count "memsim.runs"));
                       ( "memsim_certified",
                         Itf_obs.Json.Int (count "memsim.certified") );
                     ])
               | json -> json));
        write_trace tracer trace_out;
        write_metrics metrics metrics_out;
        0
  in
  let objective =
    Arg.(
      value
      & opt string Itf_opt.Request.default.objective
      & info [ "objective" ] ~docv:"OBJ" ~doc:"Objective: locality or parallel.")
  in
  let procs =
    Arg.(
      value
      & opt int Itf_opt.Request.default.procs
      & info [ "procs" ]
          ~doc:
            (Printf.sprintf "Simulated processors (parallel objective), 1..%d."
               Itf_opt.Search.max_procs))
  in
  let steps =
    Arg.(
      value
      & opt int Itf_opt.Request.default.steps
      & info [ "steps" ] ~doc:"Maximum sequence length to search, 0..8.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ]
          ~doc:
            "Search parallelism (OCaml domains). Defaults to the machine's \
             core count minus one; 1 forces a sequential search (same \
             result either way).")
  in
  let exact_topk =
    Arg.(
      value
      & opt int Itf_opt.Request.default.exact_topk
      & info [ "exact-topk" ] ~docv:"K"
          ~doc:
            "Exact simulations per search step: the analytic tier-0 cost \
             model screens every legal candidate and only the K most \
             promising reach the exact simulator. 0 opens the screen \
             (every legal candidate simulated); negative values are \
             rejected.")
  in
  let tier0_only =
    Arg.(
      value & flag
      & info [ "tier0-only" ]
          ~doc:
            "Score candidates with the analytic cost model alone — no \
             exact simulation at all. Fast, but the winner is an estimate.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Anytime wall-clock budget: stop the search after MS \
             milliseconds and print the best sequence found so far, \
             marked DEGRADED.")
  in
  let max_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:
            "Anytime node budget: stop after exploring N candidate \
             sequences and print the best found so far, marked DEGRADED.")
  in
  let show_stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print search instrumentation (cache hits, saved template applications, timings).")
  in
  let stats_json =
    Arg.(
      value & flag
      & info [ "stats-json" ]
          ~doc:"Print the search instrumentation as one JSON object on stdout.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "List every candidate the search rejected with its structured \
             reason (failed bounds precondition, lexicographically negative \
             dependence vector, unscoreable objective), plus every tier-0 \
             screening decision (estimate, admissible bound, \
             survived/screened-out/bound-pruned).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Record the search's span trace as JSON lines into FILE (see 'loopt report').")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Dump the metrics registry (rejection counters, simulator counters, engine stats) as JSON into FILE.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Search for a legal transformation sequence minimizing an objective.")
    Term.(
      const run $ nest_arg $ objective $ params_arg $ procs $ steps $ domains
      $ exact_topk $ tier0_only $ deadline_ms $ max_nodes
      $ show_stats $ stats_json $ explain $ trace_out $ metrics_out)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let run nest_path params =
    with_params params @@ fun () ->
    with_nest nest_path @@ fun prog nest ->
      if prog.Itf_lang.Parser.functions <> [] then begin
        Printf.eprintf
          "error: nests with access functions (%s) need data; 'run' does not support them\n"
          (String.concat ", " prog.Itf_lang.Parser.functions);
        exit 1
      end;
      let env = synthetic_env ~fill:true params nest in
      (try Itf_exec.Interp.run env nest with
      | Not_found ->
        Printf.eprintf "error: a symbolic parameter has no value (use --param)\n";
        exit 1);
      List.iter
        (fun (name, data) ->
          let sum = Array.fold_left ( + ) 0 data in
          Format.printf "%s: %d elements, checksum %d@." name (Array.length data) sum)
        (Itf_exec.Env.snapshot env);
      0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret a nest on synthetic data and print array checksums.")
    Term.(const run $ nest_arg $ params_arg)

(* ------------------------------------------------------------------ *)
(* emit                                                                *)
(* ------------------------------------------------------------------ *)

let emit_cmd =
  let run nest_path script params openmp =
    with_params params @@ fun () ->
    with_nest ?script nest_path @@ fun _ out ->
      let bounds = synthetic_bounds params out in
      match Itf_emit.C.program ~openmp ~params ~bounds out with
      | src ->
        print_string src;
        0
      | exception Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        1
  in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "s"; "script" ] ~docv:"SCRIPT"
          ~doc:"Apply this transformation script before emitting.")
  in
  let openmp =
    Arg.(value & flag & info [ "openmp" ] ~doc:"Emit OpenMP pragmas for pardo loops.")
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Emit a standalone C program for a nest (optionally transformed first).")
    Term.(const run $ nest_arg $ script $ params_arg $ openmp)

(* ------------------------------------------------------------------ *)
(* distribute                                                          *)
(* ------------------------------------------------------------------ *)

let distribute_cmd =
  let run nest_path refuse =
    with_nest nest_path @@ fun _ nest ->
      let p = Itf_ext.Statement.distribute nest in
      let p = if refuse then Itf_ext.Statement.fuse_all p else p in
      Format.printf "%d nest(s):@.%a@." (List.length p) Itf_ext.Program.pp p;
      0
  in
  let refuse =
    Arg.(
      value & flag
      & info [ "refuse" ] ~doc:"Greedily fuse adjacent components back where legal.")
  in
  Cmd.v
    (Cmd.info "distribute"
       ~doc:"Loop distribution: split the body into dependence components (Allen-Kennedy).")
    Term.(const run $ nest_arg $ refuse)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let run nest_path script params =
    with_params params @@ fun () ->
    with_nest ?script nest_path @@ fun _ out ->
      (* The body runs, so its arrays must exist; left zero, a
         data-dependent subscript stays in range. *)
      let env = synthetic_env ~fill:false params out in
      match Itf_exec.Trace.ascii_order env out with
      | grid ->
        print_string grid;
        0
      | exception Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        1
  in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "s"; "script" ] ~docv:"SCRIPT"
          ~doc:"Apply this transformation script before tracing.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the iteration-order grid of a (transformed) 1- or 2-deep nest.")
    Term.(const run $ nest_arg $ script $ params_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let run seed budget backends corpus out no_shrink memsim verbose trace_out
      metrics_out =
    let backends =
      match backends with
      | [] -> [ `Interp; `Compiled ]
      | names -> (
        match
          List.map
            (fun n -> (n, Itf_check.Oracle.backend_of_name n))
            (List.concat_map (String.split_on_char ',') names)
        with
        | pairs when List.for_all (fun (_, b) -> b <> None) pairs ->
          List.filter_map snd pairs
        | pairs ->
          let bad = List.find (fun (_, b) -> b = None) pairs in
          Printf.eprintf "error: unknown backend %S (interp|compiled|c)\n"
            (fst bad);
          exit 2)
    in
    if List.mem `C backends && not (Itf_check.Oracle.cc_available ()) then
      Printf.eprintf "warning: no C compiler on PATH; skipping the C leg\n";
    (* replay the corpus first: past failures must stay fixed *)
    let corpus_failures = ref 0 in
    List.iter
      (fun dir ->
        let files =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".repro")
          |> List.sort compare
        in
        List.iter
          (fun f ->
            let path = Filename.concat dir f in
            match Itf_check.Harness.replay ~backends (Itf_check.Repro.load path) with
            | Itf_check.Oracle.Diverged ds ->
              incr corpus_failures;
              Printf.printf "corpus FAIL %s\n" path;
              Format.printf "%a" Itf_check.Harness.pp_divergences ds
            | _ -> if verbose then Printf.printf "corpus ok   %s\n" path
            | exception Itf_check.Repro.Error m ->
              incr corpus_failures;
              Printf.printf "corpus BAD  %s\n" m)
          files)
      corpus;
    let on_case =
      if verbose then
        Some
          (fun ~index ~outcome:_ ->
            if (index + 1) mod 500 = 0 then
              Printf.eprintf "... %d cases\n%!" (index + 1))
      else None
    in
    let tracer =
      if trace_out = None then Itf_obs.Tracer.null else Itf_obs.Tracer.create ()
    in
    let metrics =
      if metrics_out = None then None else Some (Itf_obs.Metrics.create ())
    in
    let report =
      Itf_check.Harness.fuzz ~backends ~check_memsim:memsim
        ~shrink:(not no_shrink) ?on_case ~tracer ?metrics ~seed ~budget ()
    in
    write_trace tracer trace_out;
    write_metrics metrics metrics_out;
    Format.printf "%a" Itf_check.Harness.pp_report report;
    List.iter
      (fun (f : Itf_check.Harness.failure) ->
        Format.printf "@.FAILURE (case %d, seed %d):@.%a" f.index seed
          Itf_check.Harness.pp_divergences f.divergences;
        let note =
          Format.asprintf "seed %d case %d@.%a" seed f.index
            Itf_check.Harness.pp_divergences f.divergences
        in
        match out with
        | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let path = Filename.concat dir (Printf.sprintf "seed%d-case%d.repro" seed f.index) in
          Itf_check.Repro.save ~note path f.shrunk;
          Printf.printf "reproducer written to %s\n" path
        | None ->
          print_string (Itf_check.Repro.to_string ~note f.shrunk))
      report.Itf_check.Harness.failures;
    if report.Itf_check.Harness.failures = [] && !corpus_failures = 0 then 0
    else 1
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Random seed (the run is deterministic).")
  in
  let budget =
    Arg.(
      value & opt int 1000
      & info [ "budget" ] ~docv:"K" ~doc:"Number of generated cases.")
  in
  let backends =
    Arg.(
      value & opt_all string []
      & info [ "backends" ] ~docv:"B1,B2"
          ~doc:
            "Comma-separated backends to compare: interp, compiled, c. \
             Default: interp,compiled. The c leg needs a C compiler on PATH.")
  in
  let corpus =
    Arg.(
      value & opt_all dir []
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Replay every *.repro in DIR before fuzzing (repeatable).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write shrunken reproducers for failures into DIR.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failures unshrunk.")
  in
  let memsim =
    Arg.(
      value & flag
      & info [ "memsim" ]
          ~doc:"Also cross-check the two cache-simulation execution paths.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Progress output.") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Record one span per fuzz case as JSON lines into FILE.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Dump per-outcome case counters as JSON into FILE.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential oracle harness: fuzz random nests and transformation \
          sequences across execution backends, confirm rejections, shrink \
          and report any divergence.")
    Term.(
      const run $ seed $ budget $ backends $ corpus $ out $ no_shrink $ memsim
      $ verbose $ trace_out $ metrics_out)

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let run trace metrics counters profile top =
    if trace = None && metrics = None then begin
      Printf.eprintf
        "error: nothing to report (give a trace file and/or --metrics)\n";
      2
    end
    else begin
      let rc = ref 0 in
      (match trace with
      | None -> ()
      | Some path -> (
        match String.split_on_char '\n' (read_file path) with
        | exception Sys_error e ->
          Printf.eprintf "error: %s\n" e;
          rc := 1
        | lines -> (
          (if profile then
             match Itf_obs.Profile.of_lines lines with
             | Error e ->
               Printf.eprintf "error: %s: %s\n" path e;
               rc := 1
             | Ok rows ->
               Format.printf "== profile (%s, top %d by self time) ==@.%a" path
                 top Itf_obs.Profile.pp
                 (Itf_obs.Profile.top top rows)
           else
             match Itf_obs.Report.of_lines lines with
             | Error e ->
               Printf.eprintf "error: %s: %s\n" path e;
               rc := 1
             | Ok rows ->
               Format.printf "== spans (%s) ==@.%a" path Itf_obs.Report.pp rows);
          if counters && !rc = 0 then
            match Itf_obs.Report.counters lines with
            | Error e ->
              Printf.eprintf "error: %s: %s\n" path e;
              rc := 1
            | Ok cs ->
              Format.printf "== trace counters ==@.";
              List.iter (fun (k, v) -> Format.printf "%s %d@." k v) cs)));
      (match metrics with
      | None -> ()
      | Some path -> (
        match Itf_obs.Json.of_string (String.trim (read_file path)) with
        | exception Sys_error e ->
          Printf.eprintf "error: %s\n" e;
          rc := 1
        | Error e ->
          Printf.eprintf "error: %s: %s\n" path e;
          rc := 1
        | Ok doc ->
          Format.printf "== metrics (%s) ==@.%a" path
            Itf_obs.Report.pp_metrics_file doc));
      !rc
    end
  in
  let trace =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"JSON-lines span trace written by --trace-out.")
  in
  let metrics =
    Arg.(
      value
      & opt (some file) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Metrics dump written by --metrics-out.")
  in
  let counters =
    Arg.(
      value & flag
      & info [ "counters" ]
          ~doc:"Also sum the integer span attributes across the trace.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Render the trace as a flamegraph table: per span name, call \
             count, total time and self time (total minus children), sorted \
             by self time — where the wall clock actually went.")
  in
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N"
          ~doc:"Number of profile rows to print (with --profile).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize observability artifacts: per-span time aggregates from a \
          trace, a self-time profile (--profile), and/or a metrics dump \
          rendered as a table.")
    Term.(const run $ trace $ metrics $ counters $ profile $ top)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run socket domains deadline_ms max_cache metrics_out trace_out slow_ms
      sample_rate workers queue_depth =
    let server =
      Itf_serve.Serve.create ?domains ?default_deadline_ms:deadline_ms
        ~max_cache ?metrics_out ?trace_out ~slow_ms ~sample_rate ~workers
        ~queue_depth ()
    in
    Itf_serve.Serve.run ?socket server;
    0
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Also listen on a Unix-domain socket at PATH (removed and \
             re-created), one thread per connection.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ]
          ~doc:"Search parallelism per request (OCaml domains).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline applied to requests that carry \
             none of their own.")
  in
  let max_cache =
    Arg.(
      value
      & opt int Itf_serve.Serve.default_max_cache
      & info [ "max-cache" ] ~docv:"N"
          ~doc:
            "Capacity of the LRU response cache (identical requests \
             answered without a search); 0 disables it.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Rewrite FILE after every request with the metrics registry \
             (request counters by status, cache gauges, engine and \
             simulator counters) as JSON.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Rewrite FILE after every request with the retained span traces \
             as JSON lines (see --sample-rate).")
  in
  let slow_ms =
    Arg.(
      value
      & opt float Itf_serve.Serve.default_slow_ms
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-request threshold: a request at or above MS of wall time \
             (or any non-ok request) enters the slow log reported by \
             {\"op\": \"status\"} and always retains its span trace.")
  in
  let sample_rate =
    Arg.(
      value & opt float 1.
      & info [ "sample-rate" ] ~docv:"R"
          ~doc:
            "Head-sampling rate for span-trace retention, in [0,1]. The \
             keep/drop decision is a deterministic hash of the request \
             fingerprint, so reruns retain identical traces; slow and \
             non-ok requests are always retained regardless of R.")
  in
  let workers =
    Arg.(
      value
      & opt int Itf_serve.Serve.default_workers
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Number of requests served concurrently (worker domains from \
             the shared pool). With 1 (the default) responses come back \
             in request order; above 1 they complete out of order under \
             load and clients correlate by \"id\". Payloads are \
             byte-identical either way.")
  in
  let queue_depth =
    Arg.(
      value
      & opt int Itf_serve.Serve.default_queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission-queue capacity: searches arriving while N are \
             already waiting are shed immediately with status \
             \"overloaded\" instead of stalling. Introspection ops are \
             never shed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived search daemon: one JSON request per line on \
          stdin (and optionally a Unix socket), one JSON response per \
          line on stdout. Requests are scheduled onto a bounded pool of \
          worker domains (--workers) behind an admission queue \
          (--queue-depth); consecutive requests share the process-wide \
          memo tables, so repeated searches are answered warm.")
    Term.(
      const run $ socket $ domains $ deadline_ms $ max_cache $ metrics_out
      $ trace_out $ slow_ms $ sample_rate $ workers $ queue_depth)

let () =
  let doc = "iteration-reordering loop transformation framework (PLDI'92 reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "loopt" ~doc)
          [
            show_cmd; apply_cmd; optimize_cmd; run_cmd; emit_cmd;
            distribute_cmd; trace_cmd; fuzz_cmd; report_cmd; serve_cmd;
          ]))
