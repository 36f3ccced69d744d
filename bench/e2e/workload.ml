(* Workload definitions and seeded request streams.

   The hot set is 24 fingerprints: four nests x two objectives x three
   problem sizes, all at [steps = 2]. A {e novel} request takes a hot
   shape and renames every array to a request-unique name, so it costs a
   first-time search of that shape while missing every intern table, memo
   and the response cache; renaming changes no part of the answer, so its
   payload must equal the golden payload of its shape.

   Streams are built from balanced blocks (every block holds each hot
   shape the same number of times, in a seeded order) and the measured
   phase always ends on a block boundary. That keeps the per-search
   averages the bench reports exact and seed-independent, and keeps the
   request mix from drifting between runs. *)

module Json = Itf_obs.Json

type shape = { nest : string; objective : string; n : int }

let nest_names = [| "matmul"; "lu"; "stencil"; "figure2" |]
let objectives = [| "locality"; "parallel" |]
let sizes = [| 8; 12; 16 |]
let steps = 2

let hot =
  Array.concat
    (Array.to_list
       (Array.map
          (fun nest ->
            Array.concat
              (Array.to_list
                 (Array.map
                    (fun objective ->
                      Array.map (fun n -> { nest; objective; n }) sizes)
                    objectives)))
          nest_names))

let n_hot = Array.length hot
let shape_name s = Printf.sprintf "%s-%s-n%d" s.nest s.objective s.n

type t = Cached_repeat | Warm_search | Cold_novel | Mixed_build

let all = [ Cached_repeat; Warm_search; Cold_novel; Mixed_build ]

let name = function
  | Cached_repeat -> "cached-repeat"
  | Warm_search -> "warm-search"
  | Cold_novel -> "cold-novel"
  | Mixed_build -> "mixed-build"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Connections (and server workers) a workload uses; [conns] is
   min(2, nproc). *)
let connections w ~conns =
  match w with Cached_repeat | Cold_novel -> 1 | Warm_search | Mixed_build -> conns

let server_flags w ~conns =
  [ "--workers"; string_of_int (connections w ~conns) ]
  @ match w with Warm_search -> [ "--max-cache"; "0" ] | _ -> []

(* Whether the daemon's response cache answers a request of this
   workload: hot requests hit unless the cache is off; novel ones never
   do. *)
let cache_hit w ~novel = (not novel) && w <> Warm_search

let block_size = function Mixed_build -> 50 * n_hot | _ -> n_hot

(* Requests the traced in-process replay runs: whole blocks, sized so the
   replay takes a few seconds. *)
let traced_requests = function
  | Cached_repeat -> 84 * n_hot
  | Warm_search -> 13 * n_hot
  | Cold_novel -> 6 * n_hot
  | Mixed_build -> 50 * n_hot

(* The measured request after which the daemon's peak RSS is read, so
   the reading covers the same work in every run: a little over a third
   of what a 20 s phase completes on the 2-core host the README
   describes, and half of what its slowest of twenty such runs did. *)
let rss_requests = function
  | Cached_repeat -> 5_000 * n_hot
  | Warm_search -> 150 * n_hot
  | Cold_novel -> 20 * n_hot
  | Mixed_build -> 25 * 50 * n_hot

(* Requests [--emit-workload] writes by default: about what a 20 s
   measured phase completes on that host. *)
let nominal_requests = function
  | Cached_repeat -> 330_000
  | Warm_search -> 10_500
  | Cold_novel -> 1_300
  | Mixed_build -> 85_000

let tag = function
  | Cached_repeat -> 1
  | Warm_search -> 2
  | Cold_novel -> 3
  | Mixed_build -> 4

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

type item = { shape : int; novel : bool }

let permutation rng =
  let a = Array.init n_hot Fun.id in
  for i = n_hot - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let gen_block w rng =
  let items novel a = Array.map (fun shape -> { shape; novel }) a in
  match w with
  | Cached_repeat | Warm_search -> items false (permutation rng)
  | Cold_novel -> items true (permutation rng)
  | Mixed_build ->
    (* 24 sub-blocks of 50 requests, each with one novel request at a
       seeded position: every hot shape appears 49 times and every shape
       once as novel per block. *)
    let hot = Array.concat (List.init 49 (fun _ -> permutation rng)) in
    let novel = permutation rng in
    let next_hot = ref 0 in
    Array.concat
      (List.init n_hot (fun b ->
           let pos = Random.State.int rng 50 in
           Array.init 50 (fun k ->
               if k = pos then { shape = novel.(b); novel = true }
               else begin
                 let shape = hot.(!next_hot) in
                 incr next_hot;
                 { shape; novel = false }
               end)))

type stream = {
  w : t;
  rng : Random.State.t;
  mutable block : item array;
  mutable base : int;  (** stream index of [block.(0)] *)
}

let stream w ~seed =
  let rng = Random.State.make [| seed; tag w |] in
  { w; rng; block = gen_block w rng; base = 0 }

(* Request [i] of the stream. Indices must be requested in non-decreasing
   order (the stream is generated one block at a time). *)
let rec nth st i =
  let len = Array.length st.block in
  if i < st.base then invalid_arg "Workload.nth: index went backwards"
  else if i < st.base + len then st.block.(i - st.base)
  else begin
    st.base <- st.base + len;
    st.block <- gen_block st.w st.rng;
    nth st i
  end

(* ------------------------------------------------------------------ *)
(* Request rendering                                                   *)
(* ------------------------------------------------------------------ *)

let dir = Filename.concat "bench" "e2e"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Nest sources with comment lines dropped. *)
let sources =
  lazy
    (Array.map
       (fun nest ->
         read_file (Filename.concat dir (Filename.concat "nests" (nest ^ ".loop")))
         |> String.split_on_char '\n'
         |> List.filter (fun l ->
                let l = String.trim l in
                l <> "" && l.[0] <> '#')
         |> String.concat "\n")
       nest_names)

let source_of s =
  let rec index k = if nest_names.(k) = s.nest then k else index (k + 1) in
  (Lazy.force sources).(index 0)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9')

(* Append [suffix] to every identifier applied to a subscript list — in
   this loop language those are exactly the array references (none of the
   four nests declares an access function). *)
let rename ~suffix src =
  let b = Buffer.create (String.length src + 64) in
  let n = String.length src in
  let rec go i =
    if i < n then
      if is_ident_start src.[i] then begin
        let j = ref i in
        while !j < n && is_ident src.[!j] do incr j done;
        Buffer.add_string b (String.sub src i (!j - i));
        if !j < n && src.[!j] = '(' then Buffer.add_string b suffix;
        go !j
      end
      else begin
        Buffer.add_char b src.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let request_fields s ~src =
  [
    ("nest", Json.String src);
    ("objective", Json.String s.objective);
    ("params", Json.Obj [ ("n", Json.Int s.n) ]);
    ("steps", Json.Int steps);
  ]

(* The request line without its leading ["{"] and ["id"] — hot requests
   render this once and prepend the id per request. *)
let fields_tail fields =
  let s = Json.to_string (Json.Obj fields) in
  String.sub s 1 (String.length s - 1)

let hot_tails = lazy (Array.map (fun s -> fields_tail (request_fields s ~src:(source_of s))) hot)

let with_id id tail = Printf.sprintf "{\"id\": %d, %s" id tail

(* The nest source a stream item sends: a hot shape verbatim, or renamed
   with a salt and the request index for a novel one (e.g. [A_s1_417]). *)
let item_source ~salt i it =
  let s = hot.(it.shape) in
  if it.novel then rename ~suffix:(Printf.sprintf "_%s_%d" salt i) (source_of s)
  else source_of s

let line ~salt i it =
  if it.novel then
    with_id i (fields_tail (request_fields hot.(it.shape) ~src:(item_source ~salt i it)))
  else with_id i (Lazy.force hot_tails).(it.shape)

(* ------------------------------------------------------------------ *)
(* Golden payloads                                                     *)
(* ------------------------------------------------------------------ *)

let expected_path s = Filename.concat dir (Filename.concat "expected" (shape_name s ^ ".json"))

(* A response with its per-request envelope (["id"], ["cached"],
   ["time_ms"]) removed: the part that must be byte-identical for every
   answer to the same shape. *)
let strip = function
  | Json.Obj kvs ->
    Json.Obj (List.filter (fun (k, _) -> k <> "id" && k <> "cached" && k <> "time_ms") kvs)
  | v -> v

(* Golden payloads as serialized JSON objects, indexed like [hot]. *)
let golden =
  lazy
    (Array.map
       (fun s ->
         let path = expected_path s in
         match Json.of_string (read_file path) with
         | Ok v -> Json.to_string v
         | Error e -> failwith (Printf.sprintf "%s: %s" path e))
       hot)

(* The payload body of a response line as the daemon renders it with
   [Json.to_string]: [{"id": <id>, <body>, "cached": ..., "time_ms": ...}].
   Returns the body wrapped in braces, i.e. the stripped response, without
   parsing. *)
let response_body ~id resp =
  let prefix = Printf.sprintf "{\"id\": %d, " id in
  let marker = ", \"cached\": " in
  let pl = String.length prefix and ml = String.length marker in
  let n = String.length resp in
  if n < pl || String.sub resp 0 pl <> prefix then None
  else
    let rec find k =
      if k < pl then None
      else if String.sub resp k ml = marker then Some k
      else find (k - 1)
    in
    match find (n - ml) with
    | None -> None
    | Some k -> Some ("{" ^ String.sub resp pl (k - pl) ^ "}")
