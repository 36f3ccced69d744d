(* Shared helpers for the test suites: nest builders for the paper's worked
   examples, and an interpreter-backed oracle for semantic comparisons. *)

open Itf_ir
module Env = Itf_exec.Env
module Interp = Itf_exec.Interp

(* Naive substring search (avoids a Str dependency in tests). *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go k = k + m <= n && (String.sub s k m = sub || go (k + 1)) in
  m = 0 || go 0

(* A matrix from its rows, and the matrix-vector product, written on
   [Intmat.make] and [Intmat.get]. *)
let of_rows rows =
  let a = Array.of_list (List.map Array.of_list rows) in
  Itf_mat.Intmat.make (Array.length a) (Array.length a.(0)) (fun i j -> a.(i).(j))

let mat_apply m v =
  Array.init (Itf_mat.Intmat.rows m) (fun i ->
      let acc = ref 0 in
      Array.iteri (fun j x -> acc := !acc + (Itf_mat.Intmat.get m i j * x)) v;
      !acc)

let mat = Alcotest.testable Itf_mat.Intmat.pp (fun a b -> Itf_mat.Intmat.compare a b = 0)

(* Dependence vectors: printing, equality, and the denotation [Tuples(d)]
   the legality test reasons about (paper Definition 3.1). *)
let dv_string d = Format.asprintf "%a" Itf_dep.Depvec.pp d
let dv_equal a b = Itf_dep.Depvec.compare a b = 0
let dv = Alcotest.testable Itf_dep.Depvec.pp dv_equal

let elem_contains (e : Itf_dep.Depvec.elem) x =
  match e with Dist n -> n = x | Dir d -> Itf_dep.Dir.contains d x

let dv_mem (d : Itf_dep.Depvec.t) tuple =
  Array.length d = Array.length tuple && Array.for_all2 elem_contains d tuple

(* [Tuples(a)] within [Tuples(b)]: [dedupe] drops a vector another holds. *)
let dv_subset a b =
  dv_equal a b || not (List.exists (dv_equal a) (Itf_dep.Depvec.dedupe [ a; b ]))

(* The search's candidate moves for a [depth]-deep nest. *)
let moves ~depth = Array.to_list (Array.map fst (Itf_opt.Search.move_set ~depth).moves)

(* A rejection cause's metric labels, as the engine counts them. *)
let cause_labels : Itf_opt.Engine.cause -> string list = function
  | Unscoreable -> [ "unscoreable" ]
  | Rejected reasons -> List.map Itf_core.Legality.reason_label reasons

(* A legal state extended by one template, through its child entry as the
   engine checks it. *)
let check_extend st t =
  let t, tid = Itf_core.Template.intern_id t in
  Itf_core.Framework.check_child st t (Itf_core.Framework.child_entry st tid)

(* Legality's yes-or-no answer, read off [Legality.check]'s verdict. *)
let is_legal ?vectors nest seq =
  match Itf_core.Legality.check ?vectors nest seq with Legal _ -> true | _ -> false

(* [e]'s value in [env], through the interpreter: one iteration that sets
   a scalar. *)
let eval env e =
  Interp.run env (Nest.make [ Nest.loop "eval_" Expr.one Expr.one ] [ Stmt.Set ("eval_v", e) ]);
  Env.get_scalar env "eval_v"

let ld array index : Expr.t = Expr.Load { array; index }
let st array index rhs = Stmt.Store ({ array; index }, rhs)
let i_ = Expr.var "i"
let j_ = Expr.var "j"
let k_ = Expr.var "k"
let n_ = Expr.var "n"

(* Figure 1(a): 5-point stencil averaging. *)
let stencil () =
  Nest.make
    [
      Nest.loop "i" (Expr.int 2) Expr.(sub n_ (int 1));
      Nest.loop "j" (Expr.int 2) Expr.(sub n_ (int 1));
    ]
    [
      st "a" [ i_; j_ ]
        Expr.(
          div
            (add
               (ld "a" [ i_; j_ ])
               (add
                  (ld "a" [ sub i_ (int 1); j_ ])
                  (add
                     (ld "a" [ i_; sub j_ (int 1) ])
                     (add (ld "a" [ add i_ (int 1); j_ ]) (ld "a" [ i_; add j_ (int 1) ])))))
            (int 5));
    ]

(* Figure 6: matrix multiply. *)
let matmul () =
  Nest.make
    [
      Nest.loop "i" Expr.one n_;
      Nest.loop "j" Expr.one n_;
      Nest.loop "k" Expr.one n_;
    ]
    [
      st "A" [ i_; j_ ]
        Expr.(add (ld "A" [ i_; j_ ]) (mul (ld "B" [ i_; k_ ]) (ld "C" [ k_; j_ ])));
    ]

(* Figure 4(a): triangular loop (no dependences). *)
let triangular () =
  Nest.make
    [ Nest.loop "i" Expr.one n_; Nest.loop "j" i_ n_ ]
    [ st "a" [ i_; j_ ] Expr.(add i_ j_) ]

(* Figure 2(a): the guarded body. The guard reads [b], which the body
   writes. *)
let figure2 () =
  Nest.make
    [
      Nest.loop "i" (Expr.int 2) Expr.(sub n_ (int 1));
      Nest.loop "j" (Expr.int 2) Expr.(sub n_ (int 1));
    ]
    [
      st "a" [ i_; j_ ] (ld "b" [ j_ ]);
      Stmt.Guard
        {
          lhs = ld "b" [ j_ ];
          rel = Stmt.Gt;
          rhs = Expr.zero;
          body = [ st "b" [ j_ ] (ld "a" [ Expr.(sub i_ (int 1)); Expr.(add j_ (int 1)) ]) ];
        };
    ]

(* Figure 4(c): dense x sparse matrix product, CSR-style. *)
let sparse_matmul () =
  Nest.make
    [
      Nest.loop "i" Expr.one n_;
      Nest.loop "j" Expr.one n_;
      Nest.loop "k" (Expr.Call ("colstr", [ j_ ]))
        Expr.(sub (Call ("colstr", [ add j_ (int 1) ])) (int 1));
    ]
    [
      st "a" [ i_; j_ ]
        Expr.(
          add (ld "a" [ i_; j_ ])
            (mul (ld "b" [ i_; Call ("rowidx", [ k_ ]) ]) (ld "c" [ k_ ])));
    ]

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

(* Deterministic pseudo-random fill so runs are reproducible. *)
let fill_array name data =
  Array.iteri
    (fun k _ -> data.(k) <- (Hashtbl.hash (name, k * 2654435761) mod 1999) - 999)
    data

let make_env ?(funcs = []) ?(lo = -24) ?(hi = 24) ~params nest =
  let env = Env.create () in
  List.iter (fun (v, x) -> Env.set_scalar env v x) params;
  List.iter (fun (name, f) -> Env.declare_function env name f) funcs;
  List.iter
    (fun (a, arity) ->
      Env.declare_array env a (List.init arity (fun _ -> (lo, hi)));
      fill_array a (Env.array_data env a))
    (Nest.array_arities nest);
  env

(* Run a nest on a freshly filled environment; return the array snapshot. *)
let run_snapshot ?funcs ?lo ?hi ?(pardo_order = `Forward) ~params nest =
  let env = make_env ?funcs ?lo ?hi ~params nest in
  Interp.run ~pardo_order env nest;
  Env.snapshot env

(* Do two nests compute identical array contents, for all the given pardo
   orders of the second nest? *)
let equivalent ?funcs ?lo ?hi ~params ~orders original transformed =
  let reference = run_snapshot ?funcs ?lo ?hi ~params original in
  List.for_all
    (fun order ->
      run_snapshot ?funcs ?lo ?hi ~pardo_order:order ~params transformed
      = reference)
    orders
