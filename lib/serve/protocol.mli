(** The serve daemon's line protocol: reading request lines, decoding a
    request's fields, its cache keys, and rendering responses. It holds
    no state and takes no lock. *)

val max_line_bytes : int
(** The longest request line the reader holds: 1 MiB. *)

val line_reader : in_channel -> unit -> [ `Line of string | `Long | `Eof ]
(** [line_reader ic ()] is [ic]'s next line, trimmed; [`Long] for a line
    longer than {!max_line_bytes}, read to its end without being held;
    [`Eof] at the end of input. The last line needs no newline. *)

type request = {
  id : Itf_obs.Json.t;  (** echoed verbatim; [Null] when absent *)
  nest_src : string;
  search : Itf_opt.Request.t;
}

val decode :
  default_deadline_ms:float option ->
  Itf_obs.Json.t ->
  [ `Op of Itf_obs.Json.t * string
  | `Search of request
  | `Malformed of Itf_obs.Json.t * string ]
(** Classifies a decoded line: an object with an ["op"] field is
    [`Op (id, op)] (the op is [""] when not a string); any other object
    is a search, read field by field (each its first binding) with its
    type, absent fields taking {!Itf_opt.Request.default}'s value and an
    absent ["deadline_ms"] [default_deadline_ms], then checked by
    {!Itf_opt.Request.check}; a field of the wrong type, a broken rule or
    a value that is not an object is [`Malformed (id, message)]. An
    absent id is [Null]. *)

val fingerprint : request -> Itf_ir.Nest.t -> string
(** The response-cache key: {!Itf_opt.Request.key} with the nest named
    by its intern id, so respellings of one nest share an entry. *)

val text_key : request -> string
(** {!Itf_opt.Request.key} with the nest named by its source text: the
    key of the cache's spelling index, built without parsing the nest. *)

type entry
(** A complete answer as the cache stores it: its body's fields, and the
    same fields rendered once, between an object's braces. *)

val entry : (string * Itf_obs.Json.t) list -> entry

type response =
  | Value of Itf_obs.Json.t
  | Hit of { id : Itf_obs.Json.t; entry : entry; time_ms : float }
      (** a cache hit: only its id and time are rendered per response *)

val body : Itf_opt.Engine.outcome -> (string * Itf_obs.Json.t) list
(** A search's answer: ["status"], ["score"], ["sequence"],
    ["canonical"], ["explored"], ["exact_evals"] and, when cut, ["cut"]. *)

val envelope :
  Itf_obs.Json.t -> (string * Itf_obs.Json.t) list -> cached:bool ->
  time_ms:float -> Itf_obs.Json.t
(** [envelope id body] is a search response: its id, its body, then
    ["cached"] and ["time_ms"]. *)

val error_response : id:Itf_obs.Json.t -> string -> Itf_obs.Json.t

val to_json : response -> Itf_obs.Json.t
(** The value whose rendering {!write_response} writes. *)

val write_response : out_channel -> response -> unit
(** Writes the response's JSON text, without a newline. A hit writes
    its entry's stored fields between its own id and its ["cached"] and
    ["time_ms"] fields. *)
