(* Statement-level transformations (paper Section 6 future work): loop
   distribution splits a recurrence away from parallel work, and fusion
   merges conformable loops back when legal.

   Run with: dune exec examples/distribute_fuse.exe *)

open Itf_ir
module Statement = Itf_ext.Statement
module Program = Itf_ext.Program
module Queries = Itf_core.Queries
module Analysis = Itf_dep.Analysis

let src =
  "do i = 1, n\n\
  \  a(i) = b(i) + 1\n\
  \  c(i) = a(i - 1) * 2\n\
  \  d(i) = c(i) + a(i)\n\
   enddo\n"

let () =
  let nest = Itf_lang.Parser.parse_nest src in
  Format.printf "== input (one loop, three statements) ==@.%a@." Nest.pp nest;
  let parallel n = Queries.parallelizable_loops ~depth:1 (Analysis.vectors n) <> [] in
  Format.printf "parallelizable as-is: %b@.@." (parallel nest);

  (* Distribution: one nest per dependence component, in order. *)
  let distributed = Statement.distribute nest in
  Format.printf "== distributed (%d nests) ==@.%a@." (List.length distributed)
    Program.pp distributed;
  List.iteri
    (fun k n ->
      Format.printf "nest %d parallelizable: %b@." (k + 1) (parallel n))
    distributed;
  Format.printf "@.";

  (* Fusion: greedily merge adjacent nests back where legal. *)
  let refused = Statement.fuse_all distributed in
  Format.printf "== after maximal refusion (%d nests) ==@.%a@."
    (List.length refused) Program.pp refused;

  (* Everything is validated against the interpreter. *)
  let run p =
    let env = Itf_exec.Env.create () in
    Itf_exec.Env.set_scalar env "n" 12;
    List.iter
      (fun a ->
        Itf_exec.Env.declare_array env a [ (0, 13) ];
        let d = Itf_exec.Env.array_data env a in
        Array.iteri (fun k _ -> d.(k) <- (k * 7) mod 23) d)
      [ "a"; "b"; "c"; "d" ];
    List.iter (Itf_exec.Interp.run env) p;
    Itf_exec.Env.snapshot env
  in
  let reference = run [ nest ] in
  Format.printf "distributed ok: %b; refused ok: %b@."
    (run distributed = reference)
    (run refused = reference)
