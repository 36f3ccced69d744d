(* Randomized end-to-end validation of the framework against the
   interpreter oracle.

   For random nests and random template sequences:
   - if the framework says LEGAL, the transformed nest must compute
     bit-identical array contents, including under adversarial execution
     orders of pardo loops;
   - the transformation must execute every original iteration exactly once
     (iteration reordering is a bijection);
   - every actually-dependent iteration pair of the original execution must
     (a) be covered by the analyzer's dependence vectors (analyzer
     soundness), (b) keep its execution order in the transformed nest
     (legality soundness), and (c) have its transformed difference covered
     by the mapped vector set (Table 2 consistency, paper Definition 3.4). *)

open Itf_ir
module Depvec = Itf_dep.Depvec
module Analysis = Itf_dep.Analysis
module Template = Itf_core.Template
module Legality = Itf_core.Legality
module Env = Itf_exec.Env
module Interp = Itf_exec.Interp

(* ------------------------------------------------------------------ *)
(* Random nest generation                                              *)
(* ------------------------------------------------------------------ *)

let gen_subscript st vars =
  (* Either one loop variable or the sum of two, plus a small offset. *)
  let pick () = List.nth vars (Random.State.int st (List.length vars)) in
  let base =
    if Random.State.int st 4 = 0 && List.length vars >= 2 then
      Expr.add (Expr.var (pick ())) (Expr.var (pick ()))
    else Expr.var (pick ())
  in
  Expr.add base (Expr.int (Random.State.int st 5 - 2))

let gen_nest st =
  let depth = 2 + Random.State.int st 2 in
  let vars = List.filteri (fun k _ -> k < depth) [ "i"; "j"; "k" ] in
  let loops =
    List.mapi
      (fun idx v ->
        let lo = Random.State.int st 3 in
        let hi = lo + 2 + Random.State.int st 3 in
        (* occasionally a non-unit step, a reversed loop, or a triangular
           lower bound, exercising step normalization, iteration-number
           analysis, and the non-rectangular band rules *)
        match Random.State.int st 8 with
        | 0 -> Nest.loop ~step:(Expr.int 2) v (Expr.int lo) (Expr.int hi)
        | 1 -> Nest.loop ~step:(Expr.int (-1)) v (Expr.int hi) (Expr.int lo)
        | 2 when idx > 0 ->
          Nest.loop v (Expr.var (List.nth vars (idx - 1))) (Expr.int (hi + 2))
        | _ -> Nest.loop v (Expr.int lo) (Expr.int hi))
      vars
  in
  let load2 () : Expr.t =
    Expr.Load { array = "a"; index = [ gen_subscript st vars; gen_subscript st vars ] }
  in
  let load1 () : Expr.t = Expr.Load { array = "b"; index = [ gen_subscript st vars ] } in
  let rhs =
    Expr.add (load2 ())
      (Expr.add (load1 ()) (Expr.mul (Expr.var (List.hd vars)) (Expr.int 3)))
  in
  let target () : Expr.access =
    if Random.State.bool st then
      { array = "a"; index = [ gen_subscript st vars; gen_subscript st vars ] }
    else { array = "b"; index = [ gen_subscript st vars ] }
  in
  let body =
    match Random.State.int st 4 with
    | 0 ->
      (* value carried through a scalar temporary: serializes heavily *)
      [
        Stmt.Set ("x", load1 ());
        Stmt.Store (target (), Expr.add (Expr.var "x") rhs);
      ]
    | 1 -> [ Stmt.Store (target (), rhs); Stmt.Store (target (), load2 ()) ]
    | _ -> [ Stmt.Store (target (), rhs) ]
  in
  Nest.make loops body

(* ------------------------------------------------------------------ *)
(* Random sequence generation                                          *)
(* ------------------------------------------------------------------ *)

let gen_template st n =
  let pick_range () =
    let i = Random.State.int st n in
    let j = i + Random.State.int st (n - i) in
    (i, j)
  in
  match Random.State.int st (if n >= 2 then 7 else 5) with
  | 0 ->
    let i, j = pick_range () in
    Template.block ~n ~i ~j
      ~bsize:(Array.init (j - i + 1) (fun _ -> Expr.int (2 + Random.State.int st 2)))
  | 1 ->
    let i, j = pick_range () in
    Template.coalesce ~n ~i ~j
  | 2 ->
    let i, j = pick_range () in
    Template.interleave ~n ~i ~j
      ~isize:(Array.init (j - i + 1) (fun _ -> Expr.int (2 + Random.State.int st 2)))
  | 3 -> Template.parallelize (Array.init n (fun _ -> Random.State.int st 3 = 0))
  | 4 -> Template.reversal ~n (Random.State.int st n)
  | 5 -> Template.interchange ~n (Random.State.int st n) (Random.State.int st n)
  | _ ->
    let src = Random.State.int st n in
    let dst = (src + 1 + Random.State.int st (n - 1)) mod n in
    Template.skew ~n ~src ~dst ~factor:(1 + Random.State.int st 2)

let gen_sequence st depth =
  let len = 1 + Random.State.int st 3 in
  let rec go n k =
    if k = 0 || n > 5 then []
    else
      let t = gen_template st n in
      if Template.output_depth t > 6 then []
      else t :: go (Template.output_depth t) (k - 1)
  in
  go depth len

(* ------------------------------------------------------------------ *)
(* Instrumented execution                                              *)
(* ------------------------------------------------------------------ *)

type event = {
  iter : int array;  (** original index-variable values: iteration identity *)
  vals : int array;  (** the running nest's loop-variable values *)
  array : string;
  flat : int;
  write : bool;
}

(* Execute [nest], recording array accesses tagged with the values of
   [tag_vars] (read from the environment after init statements ran) and
   with the running nest's own loop-variable values. *)
let traced_run ?(pardo_order = `Forward) ~tag_vars nest =
  let env =
    let env = Env.create () in
    List.iter
      (fun (a, arity) ->
        Env.declare_array env a (List.init arity (fun _ -> (-20, 30)));
        Builders.fill_array a (Env.array_data env a))
      (Nest.array_arities nest);
    env
  in
  let events = ref [] in
  let current = ref [||] in
  let current_vals = ref [||] in
  Env.set_tracer env
    (Some
       (fun { Env.array; flat; kind } ->
         events :=
           {
             iter = !current;
             vals = !current_vals;
             array;
             flat;
             write = kind = Env.Write;
           }
           :: !events));
  Interp.run ~pardo_order
    ~on_iteration:(fun vals -> current_vals := vals)
    ~after_inits:(fun () ->
      current := Array.map (fun v -> Env.get_scalar env v) tag_vars)
    env nest;
  Env.set_tracer env None;
  (List.rev !events, Env.snapshot env)

(* Dependent pairs of an event trace: same element, at least one write,
   different iterations; returns (src_iter, dst_iter) in execution order. *)
let dependent_pairs events =
  let arr = Array.of_list events in
  let n = Array.length arr in
  let out = ref [] in
  for x = 0 to n - 1 do
    for y = x + 1 to n - 1 do
      let a = arr.(x) and b = arr.(y) in
      if
        a.array = b.array && a.flat = b.flat
        && (a.write || b.write)
        && a.iter <> b.iter
      then out := (a.iter, b.iter) :: !out
    done
  done;
  List.sort_uniq compare !out

let vec_sub a b = Array.init (Array.length a) (fun k -> a.(k) - b.(k))

(* Does a dependence vector cover a value-space difference? Table 2's
   vectors are in step-normalized units: an exact distance [d] on a loop
   with step [s] means a value difference of exactly [d * s]; a direction
   constrains only the execution-direction-corrected sign. *)
let elem_covers step (e : Depvec.elem) dv =
  match e with
  | Depvec.Dist d -> dv = d * step
  | Depvec.Dir _ ->
    let corrected = compare (dv * compare step 0) 0 in
    Builders.elem_contains e corrected

let vector_covers steps v dvals =
  Array.length v = Array.length dvals
  && Array.for_all Fun.id
       (Array.mapi (fun k e -> elem_covers steps.(k) e dvals.(k)) v)

let covered steps vectors dvals =
  List.exists (fun v -> vector_covers steps v dvals) vectors

let nest_steps (nest : Nest.t) =
  Array.of_list
    (List.map
       (fun (l : Nest.loop) ->
         match Expr.to_int l.Nest.step with Some s when s <> 0 -> s | _ -> 1)
       nest.Nest.loops)

(* ------------------------------------------------------------------ *)
(* The main randomized check                                           *)
(* ------------------------------------------------------------------ *)

let show_case nest seq =
  Format.asprintf "nest:@\n%a@\nsequence:@\n%a" Nest.pp nest
    Itf_core.Sequence.pp seq

let dedupe_iters events =
  List.sort_uniq compare (List.map (fun ev -> ev.iter) events)

let run_random_cases ~cases ~seed =
  let st = Random.State.make [| seed |] in
  let legal = ref 0 and illegal = ref 0 in
  for case = 1 to cases do
    let nest = gen_nest st in
    let seq = gen_sequence st (Nest.depth nest) in
    if seq <> [] then begin
      let vectors = Analysis.vectors nest in
      match Legality.check ~vectors nest seq with
      | Legality.Bounds_violation _ | Legality.Dependence_violation _ ->
        incr illegal
      | Legality.Legal { nest = out; vectors = vectors'; _ } ->
        incr legal;
        let tag_vars = Array.of_list (Nest.loop_vars nest) in
        let orig_events, orig_snap = traced_run ~tag_vars nest in
        let pairs = dependent_pairs orig_events in
        let vals_of events =
          let tbl = Hashtbl.create 64 in
          List.iter
            (fun ev ->
              if not (Hashtbl.mem tbl ev.iter) then Hashtbl.add tbl ev.iter ev.vals)
            events;
          tbl
        in
        (* (a) analyzer soundness on the original nest *)
        let orig_steps = nest_steps nest in
        List.iter
          (fun (i1, i2) ->
            let d = vec_sub i2 i1 in
            if not (covered orig_steps vectors d || Array.for_all (( = ) 0) d)
            then
              Alcotest.failf "case %d (seed %d): analyzer missed %s@\n%s" case
                seed
                (Builders.dv_string (Array.map Depvec.dist d))
                (show_case nest seq))
          pairs;
        (* (b) + (c): equivalence, bijection and order preservation, under
           forward and shuffled pardo orders *)
        List.iter
          (fun order ->
            let trans_events, trans_snap =
              traced_run ~pardo_order:order ~tag_vars out
            in
            if trans_snap <> orig_snap then
              Alcotest.failf "case %d (seed %d): results differ (%s)@\n%s" case
                seed
                (match order with
                | `Forward -> "forward"
                | `Reverse -> "reverse"
                | `Shuffle s -> "shuffle " ^ string_of_int s)
                (show_case nest seq);
            let positions = Hashtbl.create 64 in
            let pos = ref 0 in
            List.iter
              (fun ev ->
                if not (Hashtbl.mem positions ev.iter) then begin
                  Hashtbl.add positions ev.iter !pos;
                  incr pos
                end)
              trans_events;
            if Hashtbl.length positions <> List.length (dedupe_iters orig_events)
            then
              Alcotest.failf "case %d (seed %d): iteration count changed@\n%s"
                case seed (show_case nest seq);
            List.iter
              (fun (i1, i2) ->
                match
                  (Hashtbl.find_opt positions i1, Hashtbl.find_opt positions i2)
                with
                | Some p1, Some p2 ->
                  if p1 >= p2 then
                    Alcotest.failf
                      "case %d (seed %d): dependence order violated %s -> %s@\n%s"
                      case seed
                      (Builders.dv_string (Array.map Depvec.dist i1))
                      (Builders.dv_string (Array.map Depvec.dist i2))
                      (show_case nest seq)
                | _ ->
                  Alcotest.failf
                    "case %d (seed %d): iteration lost by transformation@\n%s"
                    case seed (show_case nest seq))
              pairs)
          [ `Forward; `Shuffle (case * 7) ];
        (* (d) Table 2 consistency (Definition 3.4): pair differences in
           the transformed nest's (step-normalized) coordinates are covered
           by the mapped vector set. *)
        let trans_events, _ = traced_run ~tag_vars out in
        let trans_vals = vals_of trans_events in
        let trans_steps = nest_steps out in
        List.iter
          (fun (i1, i2) ->
            match
              (Hashtbl.find_opt trans_vals i1, Hashtbl.find_opt trans_vals i2)
            with
            | Some n1, Some n2 ->
              let d' = vec_sub n2 n1 in
              if
                not
                  (covered trans_steps vectors' d'
                  || Array.for_all (( = ) 0) d')
              then
                Alcotest.failf
                  "case %d (seed %d): mapped vectors miss %s (image of %s -> %s)@\n%s"
                  case seed
                  (Builders.dv_string (Array.map Depvec.dist d'))
                  (Builders.dv_string (Array.map Depvec.dist i1))
                  (Builders.dv_string (Array.map Depvec.dist i2))
                  (show_case nest seq)
            | _ -> ())
          pairs
    end
  done;
  (!legal, !illegal)

let test_random_transformations () =
  let legal, illegal = run_random_cases ~cases:400 ~seed:20260704 in
  (* The generator must exercise both verdicts substantially. *)
  Alcotest.(check bool)
    (Printf.sprintf "enough legal cases (%d legal / %d illegal)" legal illegal)
    true (legal > 40);
  Alcotest.(check bool) "some illegal cases" true (illegal > 20)

let test_random_transformations_seed2 () =
  let legal, _ = run_random_cases ~cases:250 ~seed:42 in
  Alcotest.(check bool) "ran" true (legal > 15)

(* Illegal-by-dependence sequences, when executed anyway, must be observed
   breaking at least sometimes — guarding against a legality test that is
   vacuously strict (or an oracle that cannot tell the difference). *)
let test_illegal_sequences_do_break () =
  let st = Random.State.make [| 99 |] in
  let broke = ref 0 and total = ref 0 in
  let attempts = ref 0 in
  while !total < 60 && !attempts < 4000 do
    incr attempts;
    let nest = gen_nest st in
    let seq = gen_sequence st (Nest.depth nest) in
    if seq <> [] then begin
      match Legality.check nest seq with
      | Legality.Dependence_violation _ -> (
        incr total;
        (* Generate code anyway (bounds preconditions hold; only the
           dependence test failed) by pretending there are no dependences. *)
        match Legality.check ~vectors:[] nest seq with
        | Legality.Legal { nest = out; _ } ->
          let _, orig_snap = traced_run ~tag_vars:[||] nest in
          let _, snap = traced_run ~tag_vars:[||] out in
          if snap <> orig_snap then incr broke
        | _ -> ())
      | _ -> ()
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "instances that break: %d / %d" !broke !total)
    true
    (!total < 30 || !broke > 0)

let () =
  Alcotest.run "semantics"
    [
      ( "random",
        [
          Alcotest.test_case "400 random nest/sequence cases" `Quick
            test_random_transformations;
          Alcotest.test_case "250 more cases, other seed" `Quick
            test_random_transformations_seed2;
          Alcotest.test_case "illegal sequences observably break" `Quick
            test_illegal_sequences_do_break;
        ] );
    ]
