open Itf_ir

type result = {
  cache : Cache.stats;
  stream : Itf_exec.Compile.stream_stats;
  closures : int;
}

let no_stream = { Itf_exec.Compile.entries = 0; fallbacks = 0 }

let elem_bytes = 8

(* Assign line-aligned base addresses to every array of the nest, in
   sorted name order (both backends must lay arrays out identically for
   their stats to be comparable). *)
let layout config env nest =
  let align n a = (n + a - 1) / a * a in
  let bases = Hashtbl.create 8 in
  let next = ref 0 in
  List.iter
    (fun array ->
      if not (Hashtbl.mem bases array) then begin
        let b = !next in
        Hashtbl.add bases array b;
        next :=
          align
            (b + (Itf_exec.Env.array_size env array * elem_bytes))
            config.Cache.line_bytes
      end)
    (List.sort_uniq String.compare
       (Nest.arrays_read nest @ Nest.arrays_written nest));
  bases

let base_of bases array =
  match Hashtbl.find_opt bases array with
  | Some b -> b
  | None -> invalid_arg ("Memsim: array not in layout: " ^ array)

(* The cache's tag/age arrays are the per-run scratch: a caller evaluating
   many nests against one geometry (the search objective) passes the same
   cache back in and pays an O(sets * assoc) reset instead of a fresh
   allocation per run. A reset cache is indistinguishable from a new one,
   so results are bit-identical either way. *)
let scratch_cache ?cache config =
  match cache with
  | None -> Cache.create config
  | Some c ->
    if Cache.config_of c <> config then
      invalid_arg "Memsim: scratch cache geometry differs from run config";
    Cache.reset c;
    c

(* Spans attach to the caller's ambient tracer (null unless the caller —
   e.g. the search engine's per-candidate worker — installed one), so the
   simulators show up in a trace without threading a tracer through the
   [Search.objective] type. *)
let traced ~path f =
  let tr = Itf_obs.Tracer.ambient () in
  Itf_obs.Tracer.span tr "memsim.run" (fun () ->
      let r = f tr in
      Itf_obs.Tracer.add_attrs tr
        [
          ("path", Itf_obs.Tracer.String path);
          ("accesses", Itf_obs.Tracer.Int r.cache.Cache.accesses);
          ("misses", Itf_obs.Tracer.Int r.cache.Cache.misses);
        ];
      r)

let run ?cache config env nest =
  traced ~path:"values" @@ fun _tr ->
  let cache = scratch_cache ?cache config in
  let bases = layout config env nest in
  (* The tracer fires per element access; memoize the last array's base so
     consecutive touches of the same array skip the hashtable. *)
  let last_array = ref "" in
  let last_base = ref 0 in
  Itf_exec.Env.set_tracer env
    (Some
       (fun { Itf_exec.Env.array; flat; _ } ->
         let base =
           if array == !last_array then !last_base
           else begin
             let b = base_of bases array in
             last_array := array;
             last_base := b;
             b
           end
         in
         ignore (Cache.access cache (base + (flat * elem_bytes)))));
  Fun.protect
    ~finally:(fun () -> Itf_exec.Env.set_tracer env None)
    (fun () -> Itf_exec.Interp.run env nest);
  { cache = Cache.stats cache; stream = no_stream; closures = 0 }

(* A compiled program with the cache touch fused into every access site;
   [build] compiles the values program or the address program. *)
let run_program ~path ?cache config env nest build =
  traced ~path @@ fun tr ->
  let cache = scratch_cache ?cache config in
  let bases = layout config env nest in
  let addr =
    {
      Itf_exec.Compile.base_of = base_of bases;
      elem_bytes;
      touch = (fun a -> ignore (Cache.access cache a));
    }
  in
  let compiled =
    Itf_obs.Tracer.span tr "memsim.compile" (fun () -> build addr cache)
  in
  Itf_exec.Compile.run compiled;
  {
    cache = Cache.stats cache;
    stream = Itf_exec.Compile.stream_stats compiled;
    closures = Itf_exec.Compile.closures compiled;
  }

let run_compiled ?cache config env nest =
  run_program ~path:"values" ?cache config env nest (fun addr _ ->
      Itf_exec.Compile.compile ~addr env nest)

let simulate ?cache config env nest =
  if not (Itf_exec.Compile.static_control nest) then
    run_compiled ?cache config env nest
  else
    run_program ~path:"stream" ?cache config env nest (fun addr cache ->
        Itf_exec.Compile.compile_addresses addr ~stream:(Cache.stream cache)
          env nest)

(* The footprint certificate's two rules (memsim.mli). The premise: a
   legal candidate runs its root's body statement instances, each with
   the same values, in another order, and [layout] places its arrays
   alike, so its body touches the root's addresses. When no loop header
   or init reads an array, the body is all that touches a line, so the
   candidate's set of lines is the root's. *)
let header_reads_no_array (nest : Nest.t) =
  List.for_all
    (fun (l : Nest.loop) ->
      Expr.arrays l.Nest.lo = []
      && Expr.arrays l.Nest.hi = []
      && Expr.arrays l.Nest.step = [])
    nest.Nest.loops
  && List.for_all
       (fun s -> Stmt.arrays_read s = [] && Stmt.arrays_written s = [])
       nest.Nest.inits

let certifies root r = r.cache.Cache.evictions = 0 && header_reads_no_array root
