(* The serve protocol: request lines in, response lines out.

   A line is read with the channel's own newline scan and capped at
   1 MiB. Its object's fields are gathered in one pass, each its first
   binding, and checked with their types before {!Request.check} rules
   on their values. A request has two keys: the fingerprint names its
   nest by intern id, so respellings of one nest share a cache entry;
   the text key names it by source text, so it is built before the nest
   is parsed.

   A complete answer is stored as an [entry]: its body's fields, and the
   same fields rendered once, when stored. A hit writes
   [{"id": <id>, <stored fields>, "cached": true, "time_ms": <t>}], the
   bytes [Json.to_string] of the whole response would write, rendering
   only its id and its time. *)

module Json = Itf_obs.Json
module Engine = Itf_opt.Engine
module Request = Itf_opt.Request

(* ------------------------------------------------------------------ *)
(* Lines                                                               *)
(* ------------------------------------------------------------------ *)

(* The longest request line the reader holds: a client that never sends
   a newline cannot make the daemon buffer without bound. *)
let max_line_bytes = 1 lsl 20

(* The channel primitive [input_line] scans with: the length of the next
   line in [ic]'s buffer, its newline included, when the buffer holds
   one; minus the bytes it holds when it holds none (full, or at end of
   input); 0 at end of input. It refills the buffer when it must. *)
external input_scan_line : in_channel -> int = "caml_ml_input_scan_line"

(* [line_reader ic ()] is [ic]'s next line, trimmed, [`Long] for a line
   longer than [max_line_bytes] (read to its end and dropped), or [`Eof].
   A line the buffer holds whole is copied out once. *)
let line_reader ic =
  let line = Buffer.create 1024 in
  let drop = Bytes.create 4096 in
  let rec discard k =
    if k > 0 then begin
      let m = min k (Bytes.length drop) in
      really_input ic drop 0 m;
      discard (k - m)
    end
  in
  let rec scan long =
    match input_scan_line ic with
    | 0 ->
      if long then `Long
      else if Buffer.length line > 0 then
        `Line (String.trim (Buffer.contents line))
      else `Eof
    | n ->
      let k = if n > 0 then n - 1 else -n in
      let long = long || Buffer.length line + k > max_line_bytes in
      if n > 0 && Buffer.length line = 0 && not long then begin
        let l = really_input_string ic k in
        ignore (input_char ic);
        `Line (String.trim l)
      end
      else begin
        if long then discard k else Buffer.add_channel line ic k;
        if n < 0 then scan long
        else begin
          ignore (input_char ic);
          if long then `Long else `Line (String.trim (Buffer.contents line))
        end
      end
  in
  fun () ->
    Buffer.reset line;
    scan false

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request = {
  id : Json.t;  (** echoed verbatim; [Null] when absent *)
  nest_src : string;
  search : Request.t;
}

(* The fields a request object may carry, each its first binding (as
   [Json.member] finds it). *)
type fields = {
  mutable f_id : Json.t option;
  mutable f_op : Json.t option;
  mutable f_nest : Json.t option;
  mutable f_objective : Json.t option;
  mutable f_params : Json.t option;
  mutable f_procs : Json.t option;
  mutable f_steps : Json.t option;
  mutable f_beam : Json.t option;
  mutable f_exact_topk : Json.t option;
  mutable f_tier0_only : Json.t option;
  mutable f_deadline_ms : Json.t option;
  mutable f_max_nodes : Json.t option;
}

let fields kvs =
  let f =
    {
      f_id = None;
      f_op = None;
      f_nest = None;
      f_objective = None;
      f_params = None;
      f_procs = None;
      f_steps = None;
      f_beam = None;
      f_exact_topk = None;
      f_tier0_only = None;
      f_deadline_ms = None;
      f_max_nodes = None;
    }
  in
  let first cur v = match cur with None -> Some v | some -> some in
  List.iter
    (fun (k, v) ->
      match k with
      | "id" -> f.f_id <- first f.f_id v
      | "op" -> f.f_op <- first f.f_op v
      | "nest" -> f.f_nest <- first f.f_nest v
      | "objective" -> f.f_objective <- first f.f_objective v
      | "params" -> f.f_params <- first f.f_params v
      | "procs" -> f.f_procs <- first f.f_procs v
      | "steps" -> f.f_steps <- first f.f_steps v
      | "beam" -> f.f_beam <- first f.f_beam v
      | "exact_topk" -> f.f_exact_topk <- first f.f_exact_topk v
      | "tier0_only" -> f.f_tier0_only <- first f.f_tier0_only v
      | "deadline_ms" -> f.f_deadline_ms <- first f.f_deadline_ms v
      | "max_nodes" -> f.f_max_nodes <- first f.f_max_nodes v
      | _ -> ())
    kvs;
  f

(* An optional typed field: absent is [None]; a value [conv] rejects is a
   named error, never a silently dropped setting. *)
let typed_field name conv ~what = function
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be %s" name what))

let int_field name ~default v =
  typed_field name Json.to_int ~what:"an integer" v
  |> Result.map (Option.value ~default)

let bool_field name ~default = function
  | None | Some Json.Null -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let params_field = function
  | None -> Ok []
  | Some (Json.Obj kvs) ->
    let rec conv acc = function
      | [] -> Ok (List.rev acc)
      | (k, v) :: rest -> (
        match Json.to_int v with
        | Some x -> conv ((k, x) :: acc) rest
        | None -> Error (Printf.sprintf "parameter %S must be an integer" k))
    in
    conv [] kvs
  | Some _ -> Error "field \"params\" must be an object of integers"

let ( let* ) = Result.bind

(* Reads each field with its type, in the order below, fills what is
   absent from {!Request.default} and the server's default deadline,
   and leaves every other rule to {!Request.check}. *)
let parse_request ~default_deadline_ms f =
  let d = Request.default in
  let* nest_src =
    match Option.bind f.f_nest Json.to_str with
    | Some s -> Ok s
    | None -> Error "missing required string field \"nest\""
  in
  let* objective =
    typed_field "objective" Json.to_str ~what:"a string" f.f_objective
    |> Result.map (Option.value ~default:d.objective)
  in
  let* params = params_field f.f_params in
  let* procs = int_field "procs" ~default:d.procs f.f_procs in
  let* steps = int_field "steps" ~default:d.steps f.f_steps in
  let* beam = int_field "beam" ~default:d.beam f.f_beam in
  let* exact_topk = int_field "exact_topk" ~default:d.exact_topk f.f_exact_topk in
  let* tier0_only =
    bool_field "tier0_only" ~default:d.tier0_only f.f_tier0_only
  in
  let* deadline_ms =
    typed_field "deadline_ms" Json.to_float ~what:"a number" f.f_deadline_ms
  in
  let* max_nodes =
    typed_field "max_nodes" Json.to_int ~what:"an integer" f.f_max_nodes
  in
  let search =
    {
      Request.objective;
      params;
      procs;
      steps;
      beam;
      exact_topk;
      tier0_only;
      deadline_ms =
        (if deadline_ms = None then default_deadline_ms else deadline_ms);
      max_nodes;
    }
  in
  let* () = Request.check search in
  Ok { id = Option.value ~default:Json.Null f.f_id; nest_src; search }

let decode ~default_deadline_ms json =
  match json with
  | Json.Obj kvs -> (
    let f = fields kvs in
    let id = Option.value ~default:Json.Null f.f_id in
    match f.f_op with
    | Some (Json.String op) -> `Op (id, op)
    | Some _ -> `Op (id, "")
    | None -> (
      match parse_request ~default_deadline_ms f with
      | Ok req -> `Search req
      | Error msg -> `Malformed (id, msg)))
  | _ -> `Malformed (Json.Null, "request must be a JSON object")

let fingerprint req nest =
  Request.key req.search ~nest:(string_of_int (Itf_ir.Intern.nest_id nest))

let text_key req = Request.key req.search ~nest:req.nest_src

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type entry = { body : (string * Json.t) list; fields : string }

let entry body =
  let s = Json.to_string (Json.Obj body) in
  { body; fields = String.sub s 1 (String.length s - 2) }

type response =
  | Value of Json.t
  | Hit of { id : Json.t; entry : entry; time_ms : float }

let render_sequence seq =
  if seq = [] then "identity" else Format.asprintf "%a" Itf_core.Sequence.pp seq

let body (o : Engine.outcome) =
  [
    ("status", Json.String (Engine.completion_label o.completion));
    ("score", Json.Float o.score);
    ("sequence", Json.String (render_sequence o.sequence));
    ("canonical", Json.String (render_sequence o.canonical));
    ("explored", Json.Int o.stats.Itf_opt.Stats.nodes_explored);
    ("exact_evals", Json.Int o.stats.Itf_opt.Stats.objective_evaluations);
  ]
  @
  match o.completion with
  | Engine.Complete -> []
  | Engine.Degraded { cut } -> [ ("cut", Json.String cut) ]

let envelope id body ~cached ~time_ms =
  Json.Obj
    (("id", id)
    :: body
    @ [ ("cached", Json.Bool cached); ("time_ms", Json.Float time_ms) ])

let error_response ~id msg =
  Json.Obj
    [ ("id", id); ("status", Json.String "error"); ("error", Json.String msg) ]

let to_json = function
  | Value v -> v
  | Hit { id; entry; time_ms } -> envelope id entry.body ~cached:true ~time_ms

let write_response oc = function
  | Value v -> output_string oc (Json.to_string v)
  | Hit { id; entry; time_ms } ->
    output_string oc "{\"id\": ";
    output_string oc (Json.to_string id);
    output_string oc ", ";
    output_string oc entry.fields;
    output_string oc ", \"cached\": true, \"time_ms\": ";
    output_string oc (Json.to_string (Json.Float time_ms));
    output_char oc '}'
