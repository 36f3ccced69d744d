type value = Bool of bool | Int of int | Float of float | String of string

type span = {
  name : string;
  attrs : (string * value) list;
  start_s : float;
  dur_s : float;
  children : span list;
}

type open_span = {
  o_name : string;
  o_start : float;
  mutable o_attrs_rev : (string * value) list;
  mutable o_children_rev : span list;
}

type state = {
  clock : unit -> float;
  mutable stack : open_span list;  (* innermost first *)
  mutable roots_rev : span list;
}

type t = Disabled | Active of state

let null = Disabled
let create ?(clock = Unix.gettimeofday) () = Active { clock; stack = []; roots_rev = [] }
let enabled = function Disabled -> false | Active _ -> true

let attach st sp =
  match st.stack with
  | [] -> st.roots_rev <- sp :: st.roots_rev
  | parent :: _ -> parent.o_children_rev <- sp :: parent.o_children_rev

let close st o =
  let now = st.clock () in
  (match st.stack with
  | top :: rest when top == o -> st.stack <- rest
  | _ ->
    (* unbalanced exit (an inner span leaked open); drop down to [o] *)
    let rec pop = function
      | top :: rest when top == o -> rest
      | _ :: rest -> pop rest
      | [] -> []
    in
    st.stack <- pop st.stack);
  attach st
    {
      name = o.o_name;
      attrs = List.rev o.o_attrs_rev;
      start_s = o.o_start;
      dur_s = now -. o.o_start;
      children = List.rev o.o_children_rev;
    }

let span t ?attrs name f =
  match t with
  | Disabled -> f ()
  | Active st ->
    let o =
      {
        o_name = name;
        o_start = st.clock ();
        o_attrs_rev =
          (match attrs with None -> [] | Some mk -> List.rev (mk ()));
        o_children_rev = [];
      }
    in
    st.stack <- o :: st.stack;
    Fun.protect ~finally:(fun () -> close st o) f

let add_attrs t attrs =
  match t with
  | Disabled -> ()
  | Active st -> (
    match st.stack with
    | [] -> ()
    | o :: _ -> o.o_attrs_rev <- List.rev_append attrs o.o_attrs_rev)

let fork = function
  | Disabled -> Disabled
  | Active st -> Active { clock = st.clock; stack = []; roots_rev = [] }

let join t children =
  match t with
  | Disabled -> ()
  | Active st ->
    List.iter
      (function
        | Disabled -> ()
        | Active child -> List.iter (attach st) (List.rev child.roots_rev))
      children

let roots = function
  | Disabled -> []
  | Active st -> List.rev st.roots_rev

(* ------------------------------------------------------------------ *)
(* Head sampling                                                       *)
(* ------------------------------------------------------------------ *)

(* FNV-1a, 64-bit, spelled out rather than [Hashtbl.hash] so the
   keep/drop decision is a documented, stable function of the fingerprint
   bytes — reruns (and other implementations) sample identically. *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let head_keep ~sample_rate ~fingerprint =
  if sample_rate >= 1. then true
  else if sample_rate <= 0. then false
  else
    (* FNV-1a has weak avalanche on the trailing bytes (the final multiply
       moves a last-byte delta only into bits ~0-9 and ~40-49), so similar
       fingerprints would draw nearly identical values; the murmur3
       finalizer below achieves full avalanche before we take 32 bits as a
       uniform draw in [0, 1). Keep iff the draw is below the rate; the
       set of kept fingerprints at rate r is a subset of the set kept at
       any r' >= r. *)
    let mix h =
      let h = Int64.logxor h (Int64.shift_right_logical h 33) in
      let h = Int64.mul h 0xff51afd7ed558ccdL in
      let h = Int64.logxor h (Int64.shift_right_logical h 33) in
      let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
      Int64.logxor h (Int64.shift_right_logical h 33)
    in
    let draw =
      Int64.to_float (Int64.logand (mix (fnv1a64 fingerprint)) 0xFFFFFFFFL)
      /. 4294967296.0
    in
    draw < sample_rate

(* ------------------------------------------------------------------ *)
(* Ambient tracer (domain-local)                                       *)
(* ------------------------------------------------------------------ *)

let ambient_key = Domain.DLS.new_key (fun () -> Disabled)
let ambient () = Domain.DLS.get ambient_key

(* Installing the tracer already in place (the null one, on every
   untraced search) is a plain call: no DLS write, no [Fun.protect]
   closure. *)
let with_ambient t f =
  let old = Domain.DLS.get ambient_key in
  if t == old then f ()
  else begin
    Domain.DLS.set ambient_key t;
    Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key old) f
  end

(* ------------------------------------------------------------------ *)
(* Serialization and comparison                                        *)
(* ------------------------------------------------------------------ *)

let value_json = function
  | Bool b -> Json.Bool b
  | Int n -> Json.Int n
  | Float x -> Json.Float x
  | String s -> Json.String s

let span_json ~id ~parent (s : span) =
  Json.Obj
    [
      ("id", Json.Int id);
      ("parent", match parent with None -> Json.Null | Some p -> Json.Int p);
      ("name", Json.String s.name);
      ("start_s", Json.Float s.start_s);
      ("dur_s", Json.Float s.dur_s);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_json v)) s.attrs));
    ]

(* Writes [spans]' lines with ids from [first] in depth-first preorder;
   returns the next free id. *)
let output_jsonl oc ~first spans =
  let next = ref first in
  let rec go parent s =
    let id = !next in
    incr next;
    output_string oc (Json.to_string (span_json ~id ~parent s));
    output_char oc '\n';
    List.iter (go (Some id)) s.children
  in
  List.iter (go None) spans;
  !next

let write_jsonl oc spans = ignore (output_jsonl oc ~first:0 spans)

(* A trace file: each [emit] appends and flushes, so the file is always
   whole lines, and ids run on from the previous [emit], so the file is
   what [write_jsonl] would write for every tree emitted so far. The first
   write error is reported and ends the writing, since a file that lost
   part of a tree can no longer link children to parents. *)
type sink = { path : string; oc : out_channel; mutable next : int; mutable live : bool }

let sink path = { path; oc = open_out_bin path; next = 0; live = true }

let emit s spans =
  if s.live && not (List.is_empty spans) then
    try
      s.next <- output_jsonl s.oc ~first:s.next spans;
      flush s.oc
    with Sys_error e ->
      s.live <- false;
      Printf.eprintf "warning: trace %s is not written further: %s\n%!" s.path e
