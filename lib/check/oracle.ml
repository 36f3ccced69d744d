open Itf_ir
module Env = Itf_exec.Env
module Interp = Itf_exec.Interp
module Compile = Itf_exec.Compile
module Memsim = Itf_machine.Memsim
module Cache = Itf_machine.Cache
module L = Itf_core.Legality

type backend = [ `Interp | `Compiled | `C ]

let backend_of_name = function
  | "interp" -> Some `Interp
  | "compiled" -> Some `Compiled
  | "c" -> Some `C
  | _ -> None

type divergence = { leg : string; detail : string }

type outcome =
  | Ok_equivalent
  | Rejected_bounds
  | Rejected_dependence of [ `Confirmed | `Unconfirmed ]
  | Skipped of string
  | Diverged of divergence list

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

let array_bounds nest =
  List.map
    (fun (a, arity) ->
      (a, List.init arity (fun _ -> (Gen.array_lo, Gen.array_hi))))
    (Nest.array_arities nest)

(* Parameter values: the given ones, plus a fixed default for any symbolic
   parameter the case file forgot, so runs never die on Not_found. *)
let full_params ~params nest =
  let given = List.map fst params in
  params
  @ List.filter_map
      (fun v -> if List.mem v given then None else Some (v, 5))
      (Nest.symbolic_params nest)

(* Fresh environment with the C emitter's deterministic fill, so
   interpreter snapshots and emitted-program checksums are directly
   comparable. *)
let make_env ~params nest =
  let env = Env.create () in
  List.iter (fun (v, x) -> Env.set_scalar env v x) (full_params ~params nest);
  List.iter
    (fun (a, dims) ->
      Env.declare_array env a dims;
      Env.fill_synthetic (Env.array_data env a))
    (array_bounds nest);
  env

let exn_name e =
  match e with
  | Invalid_argument m -> "Invalid_argument(" ^ m ^ ")"
  | Failure m -> "Failure(" ^ m ^ ")"
  | Not_found -> "Not_found"
  | Division_by_zero -> "Division_by_zero"
  | e -> Printexc.to_string e

let order_name = function
  | `Forward -> "forward"
  | `Reverse -> "reverse"
  | `Shuffle s -> Printf.sprintf "shuffle %d" s

(* Snapshot of a run, or the exception it raised. *)
let interp_snapshot ~params ~order nest =
  let env = make_env ~params nest in
  match Interp.run ~pardo_order:order env nest with
  | () -> Ok (Env.snapshot env)
  | exception e -> Error (exn_name e)

let compiled_snapshot ~params ~order nest =
  let env = make_env ~params nest in
  match
    let c = Compile.compile env nest in
    Compile.run ~pardo_order:order c
  with
  | () -> Ok (Env.snapshot env)
  | exception e -> Error (exn_name e)

let checksums snap = List.map (fun (a, data) -> (a, Array.fold_left ( + ) 0 data)) snap

(* ------------------------------------------------------------------ *)
(* Emitted-C leg                                                       *)
(* ------------------------------------------------------------------ *)

(* First working C compiler on PATH, probed once. *)
let cc =
  lazy
    (List.find_opt
       (fun c -> Sys.command (Printf.sprintf "command -v %s >/dev/null 2>&1" c) = 0)
       [ "cc"; "gcc"; "clang" ])

let cc_available () = Lazy.force cc <> None

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* Emit, compile and run the nest as a standalone C program; return its
   per-array checksums. [Error] describes any stage failure. *)
let c_checksums ~params nest =
  match Lazy.force cc with
  | None -> Error "no C compiler"
  | Some cc -> (
    match
      Itf_emit.C.program ~params:(full_params ~params nest)
        ~bounds:(array_bounds nest) nest
    with
    | exception e -> Error ("emit: " ^ exn_name e)
    | src ->
      let c_file = Filename.temp_file "itf_fuzz" ".c" in
      let exe = Filename.temp_file "itf_fuzz" ".exe" in
      let out_file = Filename.temp_file "itf_fuzz" ".txt" in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun f -> try Sys.remove f with Sys_error _ -> ())
            [ c_file; exe; out_file ])
        (fun () ->
          write_file c_file src;
          if
            Sys.command
              (Printf.sprintf "%s -O1 -o %s %s 2>/dev/null" cc
                 (Filename.quote exe) (Filename.quote c_file))
            <> 0
          then Error "C compilation failed"
          else if
            Sys.command
              (Printf.sprintf "%s > %s 2>/dev/null" (Filename.quote exe)
                 (Filename.quote out_file))
            <> 0
          then Error "emitted program crashed"
          else
            Ok
              (List.filter_map
                 (fun line ->
                   match String.split_on_char ' ' (String.trim line) with
                   | [ name; sum ] ->
                     Option.map (fun s -> (name, s)) (int_of_string_opt sum)
                   | _ -> None)
                 (read_lines out_file)
              |> List.sort compare)))

(* ------------------------------------------------------------------ *)
(* Trace-based rejection confirmation                                  *)
(* ------------------------------------------------------------------ *)

type event = { iter : int array; array : string; flat : int; write : bool }

(* Execute [nest], tagging every array access with the values of
   [tag_vars] read after the init statements (i.e. with the ORIGINAL
   iteration the access belongs to). *)
let traced_run ~params ~tag_vars nest =
  let env = make_env ~params nest in
  let events = ref [] in
  let current = ref [||] in
  Env.set_tracer env
    (Some
       (fun { Env.array; flat; kind } ->
         events :=
           { iter = !current; array; flat; write = kind = Env.Write }
           :: !events));
  match
    Interp.run
      ~after_inits:(fun () ->
        current := Array.map (fun v -> Env.get_scalar env v) tag_vars)
      env nest
  with
  | () ->
    Env.set_tracer env None;
    Ok (List.rev !events, Env.snapshot env)
  | exception e -> Error (exn_name e)

(* Scan the original trace's dependent pairs (same element, at least one
   write, different iterations) and check each keeps its order in the
   transformed execution. Stops at the first violation; pair enumeration
   is capped so scalar-carried cells cannot blow up the fuzz loop. *)
let max_pairs = 100_000

let rejection_confirmed ~params nest out =
  let tag_vars = Array.of_list (Nest.loop_vars nest) in
  match traced_run ~params ~tag_vars nest with
  | Error _ -> `Unconfirmed
  | Ok (orig_events, orig_snap) -> (
    match traced_run ~params ~tag_vars out with
    | Error _ -> `Confirmed (* the illegal nest faults outright *)
    | Ok (trans_events, trans_snap) ->
      if trans_snap <> orig_snap then `Confirmed
      else begin
        (* positions of original iterations in the transformed execution *)
        let positions = Hashtbl.create 256 in
        let pos = ref 0 in
        List.iter
          (fun ev ->
            if not (Hashtbl.mem positions ev.iter) then begin
              Hashtbl.add positions ev.iter !pos;
              incr pos
            end)
          trans_events;
        (* group original events by touched cell *)
        let cells : (string * int, event list ref) Hashtbl.t =
          Hashtbl.create 256
        in
        List.iter
          (fun ev ->
            let key = (ev.array, ev.flat) in
            match Hashtbl.find_opt cells key with
            | Some l -> l := ev :: !l
            | None -> Hashtbl.add cells key (ref [ ev ]))
          orig_events;
        let budget = ref max_pairs in
        let verdict = ref `Unconfirmed in
        Hashtbl.iter
          (fun _ l ->
            if !verdict = `Unconfirmed && !budget > 0 then begin
              let evs = Array.of_list (List.rev !l) in
              let n = Array.length evs in
              (try
                 for x = 0 to n - 1 do
                   for y = x + 1 to n - 1 do
                     if !budget <= 0 then raise Exit;
                     let a = evs.(x) and b = evs.(y) in
                     if (a.write || b.write) && a.iter <> b.iter then begin
                       decr budget;
                       match
                         ( Hashtbl.find_opt positions a.iter,
                           Hashtbl.find_opt positions b.iter )
                       with
                       | Some p1, Some p2 ->
                         if p1 >= p2 then begin
                           verdict := `Confirmed;
                           raise Exit
                         end
                       | _ ->
                         (* an original iteration vanished *)
                         verdict := `Confirmed;
                         raise Exit
                     end
                   done
                 done
               with Exit -> ())
            end)
          cells;
        !verdict
      end)

(* ------------------------------------------------------------------ *)
(* The differential run                                                *)
(* ------------------------------------------------------------------ *)

let default_orders : Interp.pardo_order list =
  [ `Forward; `Reverse; `Shuffle 1234 ]

let has_pardo (nest : Nest.t) =
  List.exists (fun (l : Nest.loop) -> l.Nest.kind = Nest.Pardo) nest.Nest.loops

let run_case ?(backends = [ `Interp; `Compiled ]) ?(orders = default_orders)
    ?(check_memsim = false) ~params nest seq =
  let vectors = Itf_dep.Analysis.vectors nest in
  match L.check ~vectors nest seq with
  | L.Bounds_violation _ -> Rejected_bounds
  | L.Dependence_violation _ -> (
    (* Legality-soundness cross-check: generate the rejected code anyway
       (by pretending there are no dependences) and look for an actual
       dependence-order violation in the traces. *)
    match L.check ~vectors:[] nest seq with
    | L.Legal { nest = out; _ } ->
      Rejected_dependence (rejection_confirmed ~params nest out)
    | _ -> Rejected_dependence `Unconfirmed
  | exception e ->
    Diverged [ { leg = "legality"; detail = "Legality.check raised " ^ exn_name e } ])
  | exception e ->
    Diverged [ { leg = "legality"; detail = "Legality.check raised " ^ exn_name e } ]
  | L.Legal { nest = out; _ } -> (
    match interp_snapshot ~params ~order:`Forward nest with
    | Error e -> Skipped ("original nest faults: " ^ e)
    | Ok reference ->
      let faults = ref [] in
      let fail leg detail = faults := { leg; detail } :: !faults in
      let compare_to_ref leg what = function
        | Error e -> fail leg (what ^ " raised " ^ e)
        | Ok snap ->
          if snap <> reference then
            fail leg (what ^ " computed different array contents")
      in
      (* Which pardo orders can differ? Only nests with pardo loops. *)
      let orders_for nest =
        if has_pardo nest then orders else [ `Forward ]
      in
      if List.mem `Interp backends then begin
        (* the transformed nest against the oracle, under every order *)
        List.iter
          (fun order ->
            compare_to_ref "interp"
              (Printf.sprintf "transformed nest (%s order)" (order_name order))
              (interp_snapshot ~params ~order out))
          (orders_for out);
        (* adversarial orders of the ORIGINAL pardo nest must agree too *)
        List.iter
          (fun order ->
            compare_to_ref "interp"
              (Printf.sprintf "original nest (%s order)" (order_name order))
              (interp_snapshot ~params ~order nest))
          (match orders_for nest with _ :: rest -> rest | [] -> [])
      end;
      if List.mem `Compiled backends then begin
        compare_to_ref "compiled" "original nest (compiled)"
          (compiled_snapshot ~params ~order:`Forward nest);
        List.iter
          (fun order ->
            compare_to_ref "compiled"
              (Printf.sprintf "transformed nest (compiled, %s order)"
                 (order_name order))
              (compiled_snapshot ~params ~order out))
          (orders_for out)
      end;
      if check_memsim then begin
        (* Memsim's two execution paths must agree on stats and state. *)
        let config =
          { Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 }
        in
        let env1 = make_env ~params out and env2 = make_env ~params out in
        (match
          (Memsim.run config env1 out, Memsim.run_compiled config env2 out)
        with
        | r1, r2 ->
          if r1.Memsim.cache <> r2.Memsim.cache then
            fail "memsim" "interpreted and compiled cache simulations disagree";
          if Env.snapshot env1 <> Env.snapshot env2 then
            fail "memsim" "cache-simulated runs left different array contents"
        | exception e -> fail "memsim" ("memsim raised " ^ exn_name e));
        (* The search's entry against the interpreted oracle: equal stats,
           or the same exception. *)
        let outcome f =
          match f (make_env ~params out) with
          | r -> Ok r.Memsim.cache
          | exception e -> Error (exn_name e)
        in
        let simulated = outcome (fun env -> Memsim.simulate config env out) in
        (match (outcome (fun env -> Memsim.run config env out), simulated) with
        | Ok a, Ok b when a = b -> ()
        | Error a, Error b when a = b -> ()
        | Ok _, Ok _ ->
          fail "memsim" "Memsim.simulate and Memsim.run disagree on stats"
        | a, b ->
          let show = function Ok _ -> "stats" | Error e -> e in
          fail "memsim"
            (Printf.sprintf "Memsim.run gave %s, Memsim.simulate gave %s"
               (show a) (show b)));
        (* The footprint certificate: a root it certifies has its legal
           transformed nest's cache stats. *)
        match Memsim.simulate config (make_env ~params nest) nest with
        | root when Memsim.certifies nest root -> (
          match simulated with
          | Ok stats when stats = root.Memsim.cache -> ()
          | Ok _ ->
            fail "memsim"
              "a certified root and its transformed nest differ in cache stats"
          | Error e ->
            fail "memsim" ("a certified root's transformed nest raised " ^ e))
        | _ -> ()
        | exception _ -> ()
      end;
      if List.mem `C backends && cc_available () then begin
        let ref_sums = checksums reference in
        (match c_checksums ~params nest with
        | Error e -> fail "c" ("original nest: " ^ e)
        | Ok sums ->
          if sums <> ref_sums then
            fail "c" "original nest: emitted C checksums differ from interpreter");
        match c_checksums ~params out with
        | Error e -> fail "c" ("transformed nest: " ^ e)
        | Ok sums ->
          if sums <> ref_sums then
            fail "c" "transformed nest: emitted C checksums differ from interpreter"
      end;
      if !faults = [] then Ok_equivalent else Diverged (List.rev !faults))
