(* A small fixed-size domain pool (OCaml 5 [Domain], no external deps).

   Workers block on a condition variable waiting for jobs; [map] publishes
   one index-draining job per worker and the submitting thread drains
   indices too, so a pool of [w] workers gives [w + 1]-way parallelism.
   Indices are stolen in chunks (one atomic fetch per chunk, not per
   element) and results are written into per-index slots, which makes
   [map] order- and schedule-independent: output.(i) is always
   [f input.(i)], so a merge over the output array is deterministic
   regardless of how the domains interleave. *)

type t = {
  mutable workers : unit Domain.t list;
  jobs : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work : Condition.t;
  mutable shutdown : bool;
}

let worker t =
  let rec next () =
    if not (Queue.is_empty t.jobs) then Some (Queue.pop t.jobs)
    else if t.shutdown then None
    else begin
      Condition.wait t.work t.mutex;
      next ()
    end
  in
  let rec loop () =
    Mutex.lock t.mutex;
    let job = next () in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some job ->
      job ();
      loop ()
  in
  loop ()

let create workers =
  let t =
    {
      workers = [];
      jobs = Queue.create ();
      mutex = Mutex.create ();
      work = Condition.create ();
      shutdown = false;
    }
  in
  let workers = max 0 workers in
  t.workers <- List.init workers (fun _ -> Domain.spawn (fun () -> worker t));
  t

let grow t workers =
  Mutex.lock t.mutex;
  let missing = workers - List.length t.workers in
  let fresh = List.init (max 0 missing) (fun _ -> Domain.spawn (fun () -> worker t)) in
  t.workers <- fresh @ t.workers;
  Mutex.unlock t.mutex

(* One fire-and-forget job. Unlike [map], nothing waits on it here — the
   caller owns completion signalling (the serve scheduler chains jobs and
   counts them itself). The job runs on a worker domain verbatim, so it
   MUST NOT raise: an escaping exception kills the worker. *)
let submit t job =
  Mutex.lock t.mutex;
  Queue.push job t.jobs;
  Condition.signal t.work;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  t.shutdown <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers

(* ------------------------------------------------------------------ *)
(* The process-wide shared pool                                        *)
(* ------------------------------------------------------------------ *)

(* Spawning a domain costs hundreds of microseconds — comparable to a whole
   small search. The engine therefore reuses one persistent pool across
   searches instead of forking per call; it only ever grows, and is torn
   down at process exit. *)
let shared_mutex = Mutex.create ()
let shared_ref = ref None

let shared ~workers () =
  Mutex.lock shared_mutex;
  let t =
    match !shared_ref with
    | Some t ->
      grow t workers;
      t
    | None ->
      let t = create (max 0 workers) in
      shared_ref := Some t;
      at_exit (fun () ->
          Mutex.lock shared_mutex;
          let p = !shared_ref in
          shared_ref := None;
          Mutex.unlock shared_mutex;
          Option.iter shutdown p);
      t
  in
  Mutex.unlock shared_mutex;
  t

(* ------------------------------------------------------------------ *)
(* Parallel map                                                        *)
(* ------------------------------------------------------------------ *)

let default_threshold = 24

let map t f (input : 'a array) : 'b array =
  let n = Array.length input in
  if n = 0 then [||]
  else if t.workers = [] then Array.map f input
  else begin
    (* Size-adaptive chunks: enough for balance (4 per participant), few
       enough that atomic traffic stays negligible. *)
    let chunk = max 1 (n / (4 * (List.length t.workers + 1))) in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let remaining = Atomic.make n in
    let done_mutex = Mutex.create () in
    let done_cond = Condition.create () in
    let drain () =
      let rec go () =
        let i = Atomic.fetch_and_add next chunk in
        if i < n then begin
          let stop = min n (i + chunk) in
          for k = i to stop - 1 do
            results.(k) <- Some (try Ok (f input.(k)) with e -> Error e)
          done;
          if Atomic.fetch_and_add remaining (i - stop) = stop - i then begin
            Mutex.lock done_mutex;
            Condition.signal done_cond;
            Mutex.unlock done_mutex
          end;
          go ()
        end
      in
      go ()
    in
    Mutex.lock t.mutex;
    List.iter (fun _ -> Queue.push drain t.jobs) t.workers;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    drain ();
    Mutex.lock done_mutex;
    while Atomic.get remaining > 0 do
      Condition.wait done_cond done_mutex
    done;
    Mutex.unlock done_mutex;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

let map_auto t f input =
  (* Fan-out has a fixed cost (publishing jobs, waking workers, the final
     rendezvous) that dwarfs small batches: below the threshold, stay on
     the calling thread. *)
  if Array.length input < default_threshold then Array.map f input
  else map t f input
