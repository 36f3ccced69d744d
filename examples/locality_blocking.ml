(* Data-locality motivation: measure simulated cache misses of matrix
   multiply before and after blocking, across matrix sizes — the classic
   effect the Block template exists for (paper Section 1).

   Run with: dune exec examples/locality_blocking.exe *)

open Itf_ir
module T = Itf_core.Template
module F = Itf_core.Framework
module Cache = Itf_machine.Cache
module Memsim = Itf_machine.Memsim

let matmul () =
  Itf_lang.Parser.parse_nest
    "do i = 1, n\n\
    \  do j = 1, n\n\
    \    do k = 1, n\n\
    \      A(i, j) = A(i, j) + B(i, k) * C(k, j)\n\
    \    enddo\n\
    \  enddo\n\
     enddo\n"

let cache = { Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 }

let misses nest n =
  let env = Itf_exec.Env.create () in
  Itf_exec.Env.set_scalar env "n" n;
  List.iter
    (fun a ->
      Itf_exec.Env.declare_array env a [ (1, n); (1, n) ];
      let d = Itf_exec.Env.array_data env a in
      Array.iteri (fun k _ -> d.(k) <- k mod 7) d)
    [ "A"; "B"; "C" ];
  let r = Memsim.simulate cache env nest in
  (r.Memsim.cache.Cache.misses, r.Memsim.cache.Cache.accesses)

let () =
  let nest = matmul () in
  let block b =
    (F.apply_exn nest
       [ T.block ~n:3 ~i:0 ~j:2 ~bsize:(Array.make 3 (Expr.int b)) ])
      .F.nest
  in
  Format.printf
    "Simulated cache: %d KiB, %d-byte lines, %d-way LRU; 8-byte elements@.@."
    (cache.Cache.size_bytes / 1024)
    cache.Cache.line_bytes cache.Cache.assoc;
  Format.printf "%6s %12s %14s %14s %10s@." "n" "accesses" "misses(orig)"
    "misses(b=8)" "factor";
  List.iter
    (fun n ->
      let m0, acc = misses nest n in
      let m8, _ = misses (block 8) n in
      Format.printf "%6d %12d %14d %14d %9.1fx@." n acc m0 m8
        (float m0 /. float (max 1 m8)))
    [ 16; 24; 32; 48; 64 ];
  Format.printf "@.Block-size sweep at n = 48:@.";
  Format.printf "%6s %14s@." "b" "misses";
  let m0, _ = misses nest 48 in
  Format.printf "%6s %14d@." "none" m0;
  List.iter
    (fun b ->
      let m, _ = misses (block b) 48 in
      Format.printf "%6d %14d@." b m)
    [ 2; 4; 8; 16; 32 ]
