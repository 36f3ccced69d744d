(* What the bench records about the host, and the /proc readers it uses
   to measure the daemon from outside. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* First line of a program's standard output, [None] if it cannot run or
   exits non-zero. Its standard error is discarded. *)
let command_output prog args =
  match Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | devnull -> (
    let r, w = Unix.pipe ~cloexec:true () in
    match Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w devnull with
    | exception Unix.Unix_error _ ->
      List.iter Unix.close [ r; w; devnull ];
      None
    | pid ->
      Unix.close w;
      Unix.close devnull;
      let ic = Unix.in_channel_of_descr r in
      let out = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> (
        match String.split_on_char '\n' (String.trim out) with
        | l :: _ when l <> "" -> Some l
        | _ -> None)
      | _ -> None)

let nproc () =
  match Option.bind (command_output "nproc" []) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

(* [--git-dir] keeps git from answering for some repository enclosing a
   checkout that is not itself a git repository. *)
let git_head () =
  Option.value ~default:"unknown"
    (command_output "git" [ "--git-dir=.git"; "rev-parse"; "HEAD" ])

let fields_after_comm stat =
  match String.rindex_opt stat ')' with
  | None -> [||]
  | Some i ->
    String.sub stat (i + 1) (String.length stat - i - 1)
    |> String.trim |> String.split_on_char ' ' |> Array.of_list

(* Linux reports process times in clock ticks of 1/100 s (USER_HZ). *)
let ticks_per_s = 100.

(* utime + stime of a live process, in seconds. Fields 14 and 15 of
   /proc/<pid>/stat are at offsets 11 and 12 after the command name. *)
let process_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> nan
  | Some s ->
    let f = fields_after_comm s in
    if Array.length f < 13 then nan
    else (float_of_string f.(11) +. float_of_string f.(12)) /. ticks_per_s

(* Peak resident set ([VmHWM]) of a live process, in MB (10^6 bytes). *)
let process_peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> nan
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb *. 1024. /. 1e6
          | [] -> acc)
        | _ -> acc)
      nan
      (String.split_on_char '\n' s)

type sample = { loadavg : float; cpu_total : float; cpu_steal : float }

let sample () =
  let loadavg =
    match read_file "/proc/loadavg" with
    | Some s -> (
      match String.split_on_char ' ' s with
      | l :: _ -> Option.value ~default:nan (float_of_string_opt l)
      | [] -> nan)
    | None -> nan
  in
  let cpu_total, cpu_steal =
    match read_file "/proc/stat" with
    | None -> (nan, nan)
    | Some s -> (
      match String.split_on_char '\n' s with
      | first :: _ ->
        (* cpu user nice system idle iowait irq softirq steal ... *)
        let v =
          String.split_on_char ' ' first
          |> List.filter (fun x -> x <> "" && x <> "cpu")
          |> List.map float_of_string
          |> Array.of_list
        in
        if Array.length v < 8 then (nan, nan)
        else (Array.fold_left ( +. ) 0. (Array.sub v 0 8), v.(7))
      | [] -> (nan, nan))
  in
  { loadavg; cpu_total; cpu_steal }

(* Share of all CPU time the hypervisor stole between two samples. *)
let steal_share a b =
  let total = b.cpu_total -. a.cpu_total in
  if total > 0. then (b.cpu_steal -. a.cpu_steal) /. total else 0.

let steal_flag_threshold = 0.05
