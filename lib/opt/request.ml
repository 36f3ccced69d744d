type t = {
  objective : string;
  params : (string * int) list;
  procs : int;
  steps : int;
  beam : int;
  exact_topk : int;
  tier0_only : bool;
  deadline_ms : float option;
  max_nodes : int option;
}

let default =
  {
    objective = "locality";
    params = [];
    procs = 8;
    steps = 2;
    beam = 6;
    exact_topk = Engine.default_exact_topk;
    tier0_only = false;
    deadline_ms = None;
    max_nodes = None;
  }

let ( let* ) = Result.bind

let in_range name ~lo ~hi x =
  if lo <= x && x <= hi then Ok ()
  else Error (Printf.sprintf "field %S must be in %d..%d" name lo hi)

(* The environment takes the last value but [key] sorts the pairs, so
   two orders of one repeated name would share a key while searching
   different problems. *)
let rec once seen = function
  | [] -> Ok ()
  | (k, _) :: _ when List.mem k seen ->
    Error (Printf.sprintf "parameter %S given twice" k)
  | (k, _) :: rest -> once (k :: seen) rest

let check r =
  let* () = Search.known_objective r.objective in
  let* () = once [] r.params in
  let* () = in_range "procs" ~lo:1 ~hi:Search.max_procs r.procs in
  let* () = in_range "steps" ~lo:0 ~hi:8 r.steps in
  let* () = in_range "beam" ~lo:1 ~hi:64 r.beam in
  if r.exact_topk < 0 then Error "field \"exact_topk\" must be non-negative"
  else if r.tier0_only && r.exact_topk = 0 then
    Error "tier0_only conflicts with exact_topk = 0"
  else Ok ()

let key r ~nest =
  let params =
    List.sort compare r.params
    |> List.map (fun (k, v) -> Printf.sprintf "%d:%s=%d" (String.length k) k v)
    |> String.concat ","
  in
  Printf.sprintf "%s|%s|%d|%d|%d|%b|%d|%s" r.objective params r.steps r.beam
    r.exact_topk r.tier0_only r.procs nest

let run ?domains ?tracer ?metrics ?provenance ?since r nest =
  match
    let* () = check r in
    Search.of_name ?metrics r.objective ~procs:r.procs ~params:r.params
  with
  | Error msg -> invalid_arg ("Request.run: " ^ msg)
  | Ok (obj, tier0) ->
    let budget =
      if r.deadline_ms = None && r.max_nodes = None then None
      else
        let now = Unix.gettimeofday () in
        let spent = now -. Option.value ~default:now since in
        let left ms = Float.max 0. ((ms /. 1000.) -. spent) in
        let deadline_s = Option.map left r.deadline_ms in
        Some { Engine.deadline_s; max_nodes = r.max_nodes }
    in
    Engine.search ~beam:r.beam ~steps:r.steps ?domains ?tracer ?metrics
      ?provenance
      ?tier0:(if r.exact_topk = 0 then None else Some tier0)
      ~exact_topk:r.exact_topk ~tier0_only:r.tier0_only ?budget nest obj
