(* The real daemon as a child process: [loopt serve] listening on a Unix
   socket, stdin held open on a pipe (EOF on stdin stops the server). *)

let exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "loopt.exe"))

type t = {
  pid : int;
  stdin_w : Unix.file_descr;
  socket : string;
  mutable stdin_open : bool;
  mutable exited : bool;
}

(* Every daemon not yet reaped, so an exception or [exit] anywhere in the
   bench still stops them. *)
let live : t list ref = ref []

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let reaped d =
  d.exited <- true;
  live := List.filter (fun x -> x != d) !live

let close_stdin d =
  if d.stdin_open then begin
    d.stdin_open <- false;
    try Unix.close d.stdin_w with Unix.Unix_error _ -> ()
  end

let rec wait_exit d ~until =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ ->
    Unix.gettimeofday () <= until
    && begin
         Unix.sleepf 0.01;
         wait_exit d ~until
       end
  | _ ->
    reaped d;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit d ~until

let kill d =
  close_stdin d;
  if not d.exited then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    reaped d
  end;
  try Sys.remove d.socket with Sys_error _ -> ()

let () = at_exit (fun () -> List.iter kill !live)

let connect_fd path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let conn_of_fd fd =
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let connect d = conn_of_fd (connect_fd d.socket)
let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request line out, one response line back. *)
let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

(* Spawn a daemon and return it with the first connection it accepted
   (the moment that connection succeeds ends the "socket accepts" part of
   set-up). [socket] is a path relative to the working directory, which
   keeps it under the Unix socket path limit wherever the checkout is. *)
let spawn ~socket ~log flags =
  (try Sys.remove socket with Sys_error _ -> ());
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let args = exe :: "serve" :: "--socket" :: socket :: "--domains" :: "1" :: flags in
  let pid = Unix.create_process exe (Array.of_list args) stdin_r devnull logfd in
  List.iter Unix.close [ stdin_r; devnull; logfd ];
  let d = { pid; stdin_w; socket; stdin_open = true; exited = false } in
  live := d :: !live;
  let give_up = Unix.gettimeofday () +. 60. in
  let rec first_conn () =
    match connect_fd socket with
    | fd -> conn_of_fd fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
        reaped d;
        failwith (Printf.sprintf "daemon exited before accepting (see %s)" log)
      end;
      if Unix.gettimeofday () > give_up then begin
        kill d;
        failwith (Printf.sprintf "daemon did not accept within 60 s (see %s)" log)
      end;
      Unix.sleepf 0.002;
      first_conn ()
  in
  (d, first_conn ())

let op d name =
  let c = connect d in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () -> request c (Printf.sprintf "{\"id\":%S,\"op\":%S}" name name))

(* Ask for a shutdown over the socket, close stdin, and wait for the
   process to end; kill it if it has not ended within 30 s. The daemon's
   accept thread checks its stop flag only after [accept] returns, and
   closing the listener does not wake it, so one more connection after
   the shutdown lets it exit. *)
let stop d =
  (try ignore (op d "shutdown") with _ -> ());
  (try Unix.close (connect_fd d.socket) with Unix.Unix_error _ -> ());
  close_stdin d;
  if not (wait_exit d ~until:(Unix.gettimeofday () +. 30.)) then kill d;
  try Sys.remove d.socket with Sys_error _ -> ()
