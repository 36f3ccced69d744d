module Depvec = Itf_dep.Depvec
module Dir = Itf_dep.Dir
module Intmat = Itf_mat.Intmat

(* Minimum of h . d over Tuples(d): None = unbounded below. *)
let min_dot (h : int array) (d : Depvec.t) =
  let acc = ref (Some 0) in
  Array.iteri
    (fun k e ->
      match !acc with
      | None -> ()
      | Some sofar -> (
        let c = h.(k) in
        match e with
        | Depvec.Dist x -> acc := Some (sofar + (c * x))
        | Depvec.Dir dir ->
          let s = Dir.signs dir in
          if c = 0 then ()
          else if c > 0 then
            (* minimized at the most negative realizable value *)
            if s.Dir.neg then acc := None
            else if s.Dir.zero then acc := Some sofar
            else acc := Some (sofar + c) (* strictly positive: min at 1 *)
          else if
            (* c < 0: minimized at the most positive realizable value *)
            s.Dir.pos
          then acc := None
          else if s.Dir.zero then acc := Some sofar
          else acc := Some (sofar - c) (* strictly negative: max at -1 *)))
    d;
  !acc

let find_hyperplane ?(hmax = 3) ~depth vectors =
  (* Enumerate candidate vectors by increasing coefficient sum. *)
  let candidates = ref [] in
  let h = Array.make depth 0 in
  let rec go k =
    if k = depth then begin
      if Array.exists (( <> ) 0) h then candidates := Array.copy h :: !candidates
    end
    else
      for v = 0 to hmax do
        h.(k) <- v;
        go (k + 1);
        h.(k) <- 0
      done
  in
  go 0;
  let by_sum a b =
    compare
      (Array.fold_left ( + ) 0 a, a)
      (Array.fold_left ( + ) 0 b, b)
  in
  let ok h =
    Array.fold_left Intmat.gcd 0 h = 1
    && List.for_all
         (fun d ->
           match min_dot h d with Some m -> m >= 1 | None -> false)
         vectors
  in
  List.find_opt ok (List.sort by_sum !candidates)

(* Reduce h to +-g * e_p by integer column operations, recording them as a
   unimodular U with h U = g e_0; then M = U^{-1} has first row h / ... *)
let completion (h : int array) =
  let n = Array.length h in
  if n = 0 then invalid_arg "Hyperplane.completion: empty";
  if Array.fold_left Intmat.gcd 0 h <> 1 then
    invalid_arg "Hyperplane.completion: gcd of entries must be 1";
  let v = Array.copy h in
  let u = ref (Intmat.identity n) in
  let apply_col m =
    (* columns transform as v <- v m, so U accumulates on the right *)
    u := Intmat.mul !u m
  in
  let nonzeros () =
    List.filter (fun k -> v.(k) <> 0) (List.init n Fun.id)
  in
  let rec reduce () =
    match nonzeros () with
    | [] -> assert false
    | [ _ ] -> ()
    | nz ->
      (* pivot = smallest magnitude nonzero *)
      let p =
        List.fold_left (fun p k -> if abs v.(k) < abs v.(p) then k else p)
          (List.hd nz) nz
      in
      List.iter
        (fun q ->
          if q <> p && v.(q) <> 0 then begin
            let f = v.(q) / v.(p) in
            if f <> 0 then begin
              (* col_q <- col_q - f * col_p  =>  v_q <- v_q - f * v_p *)
              apply_col (Intmat.skew n q p (-f));
              v.(q) <- v.(q) - (f * v.(p))
            end
          end)
        nz;
      (* progress: remainders strictly shrink; recurse until one remains *)
      reduce ()
  in
  reduce ();
  let p = List.hd (nonzeros ()) in
  if v.(p) < 0 then begin
    apply_col (Intmat.reversal n p);
    v.(p) <- -v.(p)
  end;
  if p <> 0 then apply_col (Intmat.interchange n p 0);
  (* now h U = e_0, so the first row of U^{-1} is h *)
  let m = Intmat.inverse_unimodular !u in
  assert (Intmat.row m 0 = h);
  m

let wavefront ?hmax (nest : Itf_ir.Nest.t) =
  let depth = Itf_ir.Nest.depth nest in
  if depth < 2 then None
  else
    let vectors = Itf_dep.Analysis.vectors nest in
    match find_hyperplane ?hmax ~depth vectors with
    | None -> None
    | Some h -> (
      let m = completion h in
      let parflag = Array.init depth (fun k -> k > 0) in
      let seq =
        [ Itf_core.Template.unimodular m; Itf_core.Template.parallelize parflag ]
      in
      match Itf_core.Framework.apply ~vectors nest seq with
      | Ok result -> Some (seq, result)
      | Error _ -> None)
