type histo = {
  buckets : float array;
  counts : int Atomic.t array;
  sum_milli : int Atomic.t;
}
(* [counts] has one slot per bucket bound plus an overflow slot.
   [sum_milli] is the sum of observed values in fixed-point thousandths:
   integer adds commute, so parallel and sequential runs of the same work
   still dump identical registries (a float sum would not — accumulation
   order does not commute). Each observation is rounded to 1/1000 of a
   unit; observe in microseconds if that matters. *)

type instrument =
  | Counter of int Atomic.t
  | Gauge of float Atomic.t
  | Histogram of histo

type key = { name : string; labels : (string * string) list }

(* Reads go to [snapshot], a table that is never mutated once
   published, so a lookup takes no lock. Creating an instrument takes
   [mutex], adds to a copy of the current table and publishes the copy.
   Instruments are never removed, so an older snapshot only lacks the
   instruments created after it; a miss falls through to the locked
   path, which looks again in the current table. *)
type t = { mutex : Mutex.t; snapshot : (key, instrument) Hashtbl.t Atomic.t }

type counter = int Atomic.t
type gauge = float Atomic.t
type histogram = histo

let create () = { mutex = Mutex.create (); snapshot = Atomic.make (Hashtbl.create 32) }

let normalize_labels = function
  | ([] | [ _ ]) as labels -> labels
  | labels -> List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_create t ?(labels = []) name make =
  let key = { name; labels = normalize_labels labels } in
  match Hashtbl.find (Atomic.get t.snapshot) key with
  | i -> i
  | exception Not_found ->
    Mutex.protect t.mutex (fun () ->
        let tbl = Atomic.get t.snapshot in
        match Hashtbl.find_opt tbl key with
        | Some i -> i
        | None ->
          let i = make () in
          let tbl = Hashtbl.copy tbl in
          Hashtbl.add tbl key i;
          Atomic.set t.snapshot tbl;
          i)

let counter t ?labels name =
  match find_or_create t ?labels name (fun () -> Counter (Atomic.make 0)) with
  | Counter c -> c
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %s is already a %s" name
         (kind_name other))

let read_counter t ?(labels = []) name =
  match
    Hashtbl.find_opt (Atomic.get t.snapshot)
      { name; labels = normalize_labels labels }
  with
  | None -> 0
  | Some (Counter c) -> Atomic.get c
  | Some other ->
    invalid_arg
      (Printf.sprintf "Metrics.read_counter: %s is a %s" name (kind_name other))

let gauge t ?labels name =
  match find_or_create t ?labels name (fun () -> Gauge (Atomic.make 0.)) with
  | Gauge g -> g
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics.gauge: %s is already a %s" name (kind_name other))

let default_buckets =
  [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

(* A 1-2-5 log-linear series: [lo, 2lo, 5lo, 10lo, 20lo, ...] up to the
   first bound >= [hi]. Bounds are computed as mantissa * decade so the
   values are exact decimal floats, not products of rounding drift. *)
let log_linear ~lo ~hi =
  if not (lo > 0. && hi > lo) then
    invalid_arg "Metrics.log_linear: need 0 < lo < hi";
  let out = ref [] in
  let decade = ref lo in
  let stop = ref false in
  while not !stop do
    List.iter
      (fun m ->
        if not !stop then begin
          let b = m *. !decade in
          out := b :: !out;
          if b >= hi then stop := true
        end)
      [ 1.; 2.; 5. ];
    decade := !decade *. 10.
  done;
  Array.of_list (List.rev !out)

(* Duration buckets in microseconds: 1us .. 100s. *)
let duration_buckets = log_linear ~lo:1. ~hi:1e8

let histogram t ?labels ?(buckets = default_buckets) name =
  match
    find_or_create t ?labels name (fun () ->
        Histogram
          {
            buckets = Array.copy buckets;
            counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            sum_milli = Atomic.make 0;
          })
  with
  | Histogram h -> h
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %s is already a %s" name
         (kind_name other))

let incr c = Atomic.incr c

let add c by = ignore (Atomic.fetch_and_add c by)

let counter_value c = Atomic.get c

let set g x = Atomic.set g x
let gauge_value g = Atomic.get g

(* CAS loop: concurrent adds from any number of domains all land (unlike
   [set], which is last-write-wins). This is what lets a gauge track a
   level — queue depth, busy workers — maintained by racing +1/-1
   updates from the serve scheduler. *)
let gauge_add g by =
  let rec go () =
    let cur = Atomic.get g in
    if not (Atomic.compare_and_set g cur (cur +. by)) then go ()
  in
  go ()

let observe h x =
  let n = Array.length h.buckets in
  let rec go i = if i >= n then n else if x <= h.buckets.(i) then i else go (i + 1) in
  Atomic.incr h.counts.(go 0);
  ignore (Atomic.fetch_and_add h.sum_milli (int_of_float (Float.round (x *. 1000.))))

let histogram_count h =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.counts

let histogram_sum h = float_of_int (Atomic.get h.sum_milli) /. 1000.

(* Quantile estimate from bucket counts alone — a pure function of
   integers plus [q], so it is identical across runs that made the same
   observations. Linear interpolation inside the holding bucket (lower
   edge 0 for the first bucket); the overflow bucket has no finite upper
   edge, so quantiles landing there saturate at the last bound. *)
let quantile_of_counts ~buckets ~counts q =
  let n = Array.length buckets in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 || n = 0 || Float.is_nan q then None
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int total in
    let rec go i cum =
      if i >= n then Some buckets.(n - 1)
      else
        let cum' = cum + counts.(i) in
        if counts.(i) > 0 && float_of_int cum' >= target then
          let lo = if i = 0 then 0. else buckets.(i - 1) in
          let hi = buckets.(i) in
          let frac = (target -. float_of_int cum) /. float_of_int counts.(i) in
          Some (lo +. (Float.max 0. frac *. (hi -. lo)))
        else go (i + 1) cum'
    in
    go 0 0
  end

let quantile h q =
  quantile_of_counts ~buckets:h.buckets ~counts:(Array.map Atomic.get h.counts) q

let entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Atomic.get t.snapshot) []
  |> List.sort (fun (a, _) (b, _) ->
         let c = String.compare a.name b.name in
         if c <> 0 then c else compare a.labels b.labels)

let dump t =
  let metric (key, i) =
    let base =
      [
        ("name", Json.String key.name);
        ( "labels",
          Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) key.labels) );
        ("type", Json.String (kind_name i));
      ]
    in
    let payload =
      match i with
      | Counter c -> [ ("value", Json.Int (Atomic.get c)) ]
      | Gauge g -> [ ("value", Json.Float (Atomic.get g)) ]
      | Histogram h ->
        [
          ("buckets", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) h.buckets)));
          ( "counts",
            Json.List
              (Array.to_list (Array.map (fun c -> Json.Int (Atomic.get c)) h.counts)) );
          ("count", Json.Int (histogram_count h));
          ("sum", Json.Float (histogram_sum h));
        ]
    in
    Json.Obj (base @ payload)
  in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("metrics", Json.List (List.map metric (entries t)));
    ]

(* A metrics file: each [write] replaces it with the whole dump. The first
   error is reported and ends the writing. *)
type sink = { path : string; mutable live : bool }

let sink path =
  close_out (open_out_bin path);
  { path; live = true }

let write s t =
  if s.live then
    try
      Out_channel.with_open_bin s.path (fun oc ->
          output_string oc (Json.to_string (dump t));
          output_char oc '\n')
    with Sys_error e ->
      s.live <- false;
      Printf.eprintf "warning: metrics %s are not written further: %s\n%!" s.path e

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let prom_name s =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_' || c = ':'
      then c
      else '_')
    s

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (prom_name k) (prom_escape v))
           labels)
    ^ "}"

let prom_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let dump_prometheus t =
  let b = Buffer.create 1024 in
  let last_typed = ref "" in
  List.iter
    (fun (key, i) ->
      let name = prom_name key.name in
      if !last_typed <> name then begin
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" name (kind_name i));
        last_typed := name
      end;
      match i with
      | Counter c ->
        Buffer.add_string b
          (Printf.sprintf "%s%s %d\n" name (prom_labels key.labels)
             (Atomic.get c))
      | Gauge g ->
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" name (prom_labels key.labels)
             (prom_float (Atomic.get g)))
      | Histogram h ->
        let cum = ref 0 in
        Array.iteri
          (fun k c ->
            cum := !cum + Atomic.get c;
            let le =
              if k < Array.length h.buckets then prom_float h.buckets.(k)
              else "+Inf"
            in
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (prom_labels (key.labels @ [ ("le", le) ]))
                 !cum))
          h.counts;
        Buffer.add_string b
          (Printf.sprintf "%s_sum%s %s\n" name (prom_labels key.labels)
             (prom_float (histogram_sum h)));
        Buffer.add_string b
          (Printf.sprintf "%s_count%s %d\n" name (prom_labels key.labels)
             (histogram_count h)))
    (entries t);
  Buffer.contents b
