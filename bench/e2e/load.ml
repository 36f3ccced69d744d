(* The load generator: set-up cycles and the closed-loop measured phase
   against a spawned daemon.

   Closed loop: each connection has exactly one request in flight and
   sends the next only after reading the previous response, as compile
   jobs that block on the answer do. One process drives all connections
   from its own threads. Every response is checked against the golden
   payload of its shape as it arrives. *)

module Json = Itf_obs.Json

type errors = {
  mutable non_ok : int;  (** a response whose status is not ["ok"] *)
  mutable mismatch : int;  (** status ok, payload differs from golden *)
  mutable transport : int;  (** connection failed or closed early *)
  mutable first : string list;  (** the first few offending responses *)
}

let no_errors () = { non_ok = 0; mismatch = 0; transport = 0; first = [] }
let error_count e = e.non_ok + e.mismatch + e.transport
let errors_lock = Mutex.create ()

let note_error e kind detail =
  Mutex.protect errors_lock (fun () ->
      (match kind with
      | `Non_ok -> e.non_ok <- e.non_ok + 1
      | `Mismatch -> e.mismatch <- e.mismatch + 1
      | `Transport -> e.transport <- e.transport + 1);
      if List.length e.first < 5 then e.first <- e.first @ [ detail ])

(* Check one response line against the golden payload of its shape. *)
let check errors ~id ~shape resp =
  let golden = (Lazy.force Workload.golden).(shape) in
  match Workload.response_body ~id resp with
  | Some body when String.equal body golden -> ()
  | _ ->
    let status =
      match Json.of_string resp with
      | Ok j -> Option.bind (Json.member "status" j) Json.to_str
      | Error _ -> None
    in
    let kind = if status = Some "ok" then `Mismatch else `Non_ok in
    note_error errors kind
      (Printf.sprintf "request %d (%s): %s" id
         (Workload.shape_name Workload.hot.(shape))
         resp)

(* The warm-up every workload runs before timing: each hot request once,
   on one connection, with negative ids so they never collide with the
   measured stream's. *)
let warm_up errors conn =
  Array.iteri
    (fun k tail ->
      let id = -(k + 1) in
      match Daemon.request conn (Workload.with_id id tail) with
      | resp -> check errors ~id ~shape:k resp
      | exception e -> note_error errors `Transport (Printexc.to_string e))
    (Lazy.force Workload.hot_tails)

(* One set-up cycle: spawn, wait until the socket accepts, warm up. *)
let setup_cycle errors ~socket ~log flags =
  let t0 = Quant.now () in
  let d, conn = Daemon.spawn ~socket ~log flags in
  warm_up errors conn;
  let dt = Quant.now () -. t0 in
  Daemon.close conn;
  (d, dt)

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The shared hosts this runs on change speed by tens of percent, for
   anything from a second to minutes (other tenants, not steal), which no
   run length averages away. So at every window boundary, while the daemon
   is idle, the bench times a fixed piece of its own code — hash-table
   updates over short lists, allocation-heavy like the engine — and scales
   each window's timing metrics toward the speed at which that probe takes
   [nominal_probe_s]. The probe is bench code, identical on every commit,
   so the scaling cannot hide a change to the daemon; the unscaled values
   stay in the results file. *)

let probe_work () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 1 to 60_000 do
    let k = i * 7919 land 0x3FFF in
    let l = Option.value ~default:[] (Hashtbl.find_opt h k) in
    Hashtbl.replace h k (if List.length l >= 4 then [ i ] else i :: l);
    acc := !acc + k
  done;
  !acc

(* Median of three rounds on the calling domain. Over a few seconds, one
   domain's probe time tracked an in-process warm search with correlation
   0.95 on the VM below; the same probe on two domains at once, which
   also times their stop-the-world minor collections, only 0.83. *)
let probe () =
  let round () =
    let t0 = Quant.now () in
    ignore (Sys.opaque_identity (probe_work ()));
    Quant.now () -. t0
  in
  Quant.median (Array.init 3 (fun _ -> round ()))

(* The probe's time on a 2-core x86-64 VM (Xeon, 2.0 GHz) in a quiet
   period. *)
let nominal_probe_s = 0.009

(* Divide a time by this to scale it to nominal host speed; multiply a
   rate by it. Across runs on that VM, the daemon's times moved with the
   probe's to the power 0.5 (searching workloads) to 0.9 (cache hits),
   with correlation 0.82-0.91; the exponent takes the middle. *)
let slowdown probe_s = (probe_s /. nominal_probe_s) ** 0.75

(* ------------------------------------------------------------------ *)
(* Measured phase                                                      *)
(* ------------------------------------------------------------------ *)

let windows = 20

type window = {
  w_start : float;  (** seconds from phase start *)
  w_end : float;
  w_requests : int;
  w_cpu_s : float;  (** daemon CPU time spent in the window *)
  w_p50_ms : float;
  w_p90_ms : float;
  w_probe_s : float;  (** mean of the probes at its two ends *)
}

type phase = {
  requests : int;
  wall_s : float;  (** measured time, pauses excluded *)
  latencies_ms : float array;  (** every request, in no particular order *)
  windows : window array;
  cpu_s : float;
  peak_rss_mb : float;  (** daemon VmHWM once [rss_at] requests completed *)
  rss_requests : int;  (** requests completed when it was read *)
  bodies : string option array;  (** responses to the first requests, by index *)
  host_start : Host.sample;
  host_end : Host.sample;
}

(* A pause between windows: load stops, the probe runs, load resumes. *)
type mark = { t_pause : float; cpu_pause : float; probe_s : float; t_resume : float; cpu_resume : float }

(* Run [w]'s stream against [d] on [conns] connections for [seconds] of
   load, then finish the block in progress, so the phase always covers
   whole blocks. The load pauses at [windows - 1] evenly spaced points,
   each moved to the next block boundary so that every window holds the
   same request mix and at least one block — every connection finishes its
   request and waits — to read the daemon's CPU time and probe the host's
   speed; the same happens before the first and after the last window.
   Requests belong to the window they completed in. The daemon's peak RSS is read when request [rss_at] completes, so it
   reflects a fixed amount of work. Responses to the first [keep] requests
   are kept for the traced replay's cross-process check. *)
let run d ~w ~seed ~conns ~seconds ~keep ~rss_at errors =
  let st = Workload.stream w ~seed in
  let salt = Printf.sprintf "s%d" seed in
  let block = Workload.block_size w in
  let pid = d.Daemon.pid in
  let lock = Mutex.create () and resume = Condition.create () in
  let next = ref 0 and limit = ref max_int and completed = ref 0 in
  let rss = ref None in
  let bodies = Array.make keep None in
  let host_start = Host.sample () in
  let pause () =
    let t_pause = Quant.now () and cpu_pause = Host.process_cpu_s pid in
    let probe_s = probe () in
    { t_pause; cpu_pause; probe_s; t_resume = Quant.now (); cpu_resume = Host.process_cpu_s pid }
  in
  let marks = ref [ pause () ] in
  let t0 = (List.hd !marks).t_resume in
  let paused = ref 0. and boundary = ref 1 and released_at = ref 0 in
  let active = ref conns and arrived = ref 0 and generation = ref 0 in
  let load_time () = Quant.now () -. t0 -. !paused in
  (* The last active connection to reach a window boundary pauses the
     load and releases the others. Called with [lock] held. *)
  let release () =
    let m = pause () in
    marks := m :: !marks;
    paused := !paused +. (m.t_resume -. m.t_pause);
    incr boundary;
    released_at := !next;
    arrived := 0;
    incr generation;
    Condition.broadcast resume
  in
  let rec fetch () =
    if !limit = max_int && load_time () >= seconds then limit := (!next + block - 1) / block * block;
    if !next >= !limit then begin
      decr active;
      if !arrived > 0 && !arrived = !active then release ();
      None
    end
    else if
      !boundary < windows
      && !next mod block = 0
      && !next > !released_at
      && load_time () >= seconds *. float_of_int !boundary /. float_of_int windows
    then begin
      incr arrived;
      if !arrived = !active then release ()
      else begin
        let g = !generation in
        while !generation = g do
          Condition.wait resume lock
        done
      end;
      fetch ()
    end
    else begin
      let i = !next in
      incr next;
      Some (i, Workload.nth st i)
    end
  in
  let client (lat, done_at) =
    let conn = Daemon.connect d in
    let rec loop () =
      match Mutex.protect lock fetch with
      | None -> ()
      | Some (i, it) ->
        let line = Workload.line ~salt i it in
        let t_send = Quant.now () in
        (match Daemon.request conn line with
        | exception e -> note_error errors `Transport (Printexc.to_string e)
        | resp ->
          let t_recv = Quant.now () in
          Quant.Buf.push lat ((t_recv -. t_send) *. 1e3);
          Quant.Buf.push done_at (t_recv -. t0);
          if i < keep then bodies.(i) <- Some resp;
          check errors ~id:i ~shape:it.Workload.shape resp;
          let n = Mutex.protect lock (fun () -> incr completed; !completed) in
          if n = rss_at then rss := Some (Host.process_peak_rss_mb pid, n));
        loop ()
    in
    Fun.protect ~finally:(fun () -> Daemon.close conn) loop
  in
  let bufs = List.init conns (fun _ -> (Quant.Buf.create (), Quant.Buf.create ())) in
  let threads = List.map (Thread.create client) bufs in
  List.iter Thread.join threads;
  marks := pause () :: !marks;
  let host_end = Host.sample () in
  let peak_rss_mb, rss_requests =
    match !rss with Some r -> r | None -> (Host.process_peak_rss_mb pid, !completed)
  in
  let lat = Array.concat (List.map (fun (l, _) -> Quant.Buf.to_array l) bufs) in
  let done_at = Array.concat (List.map (fun (_, t) -> Quant.Buf.to_array t) bufs) in
  let marks = Array.of_list (List.rev !marks) in
  let rel m = m -. t0 in
  let window k =
    let a = marks.(k) and b = marks.(k + 1) in
    let s = rel a.t_resume and e = rel b.t_pause in
    let inside = ref [] in
    Array.iteri (fun i t -> if t >= s && t <= e then inside := lat.(i) :: !inside) done_at;
    let xs = Quant.sorted (Array.of_list !inside) in
    {
      w_start = s;
      w_end = e;
      w_requests = Array.length xs;
      w_cpu_s = b.cpu_pause -. a.cpu_resume;
      w_p50_ms = Quant.quantile_sorted xs 0.5;
      w_p90_ms = Quant.quantile_sorted xs 0.9;
      w_probe_s = (a.probe_s +. b.probe_s) /. 2.;
    }
  in
  (* Only the last window can be empty: when the phase ends right at a
     boundary. *)
  let windows =
    Array.init (Array.length marks - 1) window |> Array.to_list
    |> List.filter (fun x -> x.w_requests > 0)
    |> Array.of_list
  in
  {
    requests = Array.length lat;
    wall_s = Array.fold_left (fun acc x -> acc +. (x.w_end -. x.w_start)) 0. windows;
    latencies_ms = lat;
    windows;
    cpu_s = Array.fold_left (fun acc x -> acc +. x.w_cpu_s) 0. windows;
    peak_rss_mb;
    rss_requests;
    bodies;
    host_start;
    host_end;
  }

(* End-to-end metrics of a phase, each scaled to nominal host speed per
   window and then the median of the windows' values, so one disturbed
   window moves none of them. [raw] skips the scaling. *)
let e2e ?(raw = false) phase =
  let per f = Quant.median (Array.map f phase.windows) in
  let k w = if raw then 1. else slowdown w.w_probe_s in
  let dur w = w.w_end -. w.w_start in
  [
    ("throughput_rps", per (fun w -> float_of_int w.w_requests /. dur w *. k w));
    ("latency_p50_ms", per (fun w -> w.w_p50_ms /. k w));
    ("latency_p90_ms", per (fun w -> w.w_p90_ms /. k w));
    ("cpu_ms_per_req", per (fun w -> w.w_cpu_s *. 1e3 /. float_of_int (max 1 w.w_requests) /. k w));
  ]
