open Itf_ir
module Analysis = Itf_dep.Analysis

(* ------------------------------------------------------------------ *)
(* Tarjan's strongly connected components.                             *)
(* Emits components in reverse topological order of the condensation,  *)
(* which is exactly the execution order distribution needs once        *)
(* reversed.                                                           *)
(* ------------------------------------------------------------------ *)

let sccs ~vertices ~successors =
  let index = Array.make vertices (-1) in
  let lowlink = Array.make vertices 0 in
  let on_stack = Array.make vertices false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (successors v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> assert false
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to vertices - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (* Tarjan yields reverse-topological; !components accumulated by
     prepending is therefore topological already. *)
  !components

(* ------------------------------------------------------------------ *)
(* Distribution                                                        *)
(* ------------------------------------------------------------------ *)

let distribute (nest : Nest.t) : Program.t =
  let body = Array.of_list nest.Nest.body in
  let m = Array.length body in
  if m <= 1 then [ nest ]
  else begin
    let edges = Analysis.statement_edges nest in
    let succ =
      Array.make m []
    in
    List.iter
      (fun { Analysis.src; dst; _ } ->
        if src <> dst && not (List.mem dst succ.(src)) then
          succ.(src) <- dst :: succ.(src))
      edges;
    let components = sccs ~vertices:m ~successors:(fun v -> succ.(v)) in
    List.map
      (fun comp ->
        let comp = List.sort compare comp in
        { nest with Nest.body = List.map (fun k -> body.(k)) comp })
      components
  end

(* ------------------------------------------------------------------ *)
(* Fusion                                                              *)
(* ------------------------------------------------------------------ *)

let headers_conformable (a : Nest.t) (b : Nest.t) =
  List.length a.Nest.loops = List.length b.Nest.loops
  && List.for_all2
       (fun (la : Nest.loop) (lb : Nest.loop) ->
         la.Nest.var = lb.Nest.var
         && Expr.equal la.Nest.lo lb.Nest.lo
         && Expr.equal la.Nest.hi lb.Nest.hi
         && Expr.equal la.Nest.step lb.Nest.step
         && la.Nest.kind = lb.Nest.kind)
       a.Nest.loops b.Nest.loops

(* Two nests fuse when their headers agree, neither has initialization
   statements, and no statement of the second body reaches a later
   iteration of the first. *)
let fusable (a : Nest.t) (b : Nest.t) =
  headers_conformable a b
  && a.Nest.inits = [] && b.Nest.inits = []
  && not (Analysis.fusion_preventing a ~first:a.Nest.body ~second:b.Nest.body)

let rec fuse_all (p : Program.t) : Program.t =
  match p with
  | a :: b :: rest when fusable a b ->
    fuse_all ({ a with Nest.body = a.Nest.body @ b.Nest.body } :: rest)
  | a :: rest -> a :: fuse_all rest
  | [] -> []
