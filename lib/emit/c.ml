open Itf_ir

let rec expr_buf b (e : Expr.t) =
  let bin op x y =
    Buffer.add_char b '(';
    expr_buf b x;
    Buffer.add_string b op;
    expr_buf b y;
    Buffer.add_char b ')'
  in
  let fn name args =
    Buffer.add_string b name;
    Buffer.add_char b '(';
    List.iteri
      (fun k a ->
        if k > 0 then Buffer.add_string b ", ";
        expr_buf b a)
      args;
    Buffer.add_char b ')'
  in
  match e with
  | Int n ->
    if n < 0 then Buffer.add_string b (Printf.sprintf "(%dL)" n)
    else Buffer.add_string b (string_of_int n ^ "L")
  | Var v -> Buffer.add_string b v
  | Neg a ->
    Buffer.add_string b "(-";
    expr_buf b a;
    Buffer.add_char b ')'
  | Add (x, y) -> bin " + " x y
  | Sub (x, y) -> bin " - " x y
  | Mul (x, y) -> bin " * " x y
  | Div (x, y) -> fn "ifloordiv" [ x; y ]
  | Mod (x, y) -> fn "ifloormod" [ x; y ]
  | Min (x, y) -> fn "imin" [ x; y ]
  | Max (x, y) -> fn "imax" [ x; y ]
  | Load { array; index } -> fn array index
  | Call ("abs", args) -> fn "iabs" args
  | Call ("sgn", args) -> fn "isgn" args
  | Call (f, _) ->
    invalid_arg ("C emitter: uninterpreted function " ^ f)

let expr_to_c e =
  let b = Buffer.create 64 in
  expr_buf b e;
  Buffer.contents b

let helpers =
  "static long ifloordiv(long a, long b) {\n\
  \  long q = a / b, r = a % b;\n\
  \  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;\n\
   }\n\
   static long ifloormod(long a, long b) { return a - b * ifloordiv(a, b); }\n\
   static long imin(long a, long b) { return a < b ? a : b; }\n\
   static long imax(long a, long b) { return a > b ? a : b; }\n\
   static long iabs(long a) { return a < 0 ? -a : a; }\n\
   static long isgn(long a) { return (a > 0) - (a < 0); }\n"

let indent b k = Buffer.add_string b (String.make (2 * k) ' ')

let rel_to_c = function
  | Stmt.Lt -> "<"
  | Stmt.Le -> "<="
  | Stmt.Gt -> ">"
  | Stmt.Ge -> ">="
  | Stmt.Eq -> "=="
  | Stmt.Ne -> "!="

let rec stmt_buf b depth (s : Stmt.t) =
  match s with
  | Stmt.Store ({ array; index }, rhs) ->
    indent b depth;
    Buffer.add_string b array;
    Buffer.add_char b '(';
    List.iteri
      (fun k e ->
        if k > 0 then Buffer.add_string b ", ";
        expr_buf b e)
      index;
    Buffer.add_string b ") = ";
    expr_buf b rhs;
    Buffer.add_string b ";\n"
  | Stmt.Set (v, rhs) ->
    indent b depth;
    Buffer.add_string b v;
    Buffer.add_string b " = ";
    expr_buf b rhs;
    Buffer.add_string b ";\n"
  | Stmt.Guard { lhs; rel; rhs; body } ->
    indent b depth;
    Buffer.add_string b "if (";
    expr_buf b lhs;
    Buffer.add_string b (" " ^ rel_to_c rel ^ " ");
    expr_buf b rhs;
    Buffer.add_string b ") {\n";
    List.iter (stmt_buf b (depth + 1)) body;
    indent b depth;
    Buffer.add_string b "}\n"

(* Scalars assigned by inits or body; they must be declared. *)
let assigned_scalars (nest : Nest.t) =
  List.sort_uniq compare
    (List.concat_map Stmt.defined_vars (nest.Nest.inits @ nest.Nest.body))

let loops_buf ?(openmp = false) b depth0 (nest : Nest.t) =
  let rec go depth = function
    | [] ->
      List.iter (stmt_buf b depth) nest.Nest.inits;
      List.iter (stmt_buf b depth) nest.Nest.body
    | (l : Nest.loop) :: rest ->
      let v = l.Nest.var in
      indent b depth;
      Buffer.add_string b "{\n";
      indent b (depth + 1);
      Buffer.add_string b (Printf.sprintf "const long lo_%s = " v);
      expr_buf b l.Nest.lo;
      Buffer.add_string b ";\n";
      indent b (depth + 1);
      Buffer.add_string b (Printf.sprintf "const long hi_%s = " v);
      expr_buf b l.Nest.hi;
      Buffer.add_string b ";\n";
      indent b (depth + 1);
      Buffer.add_string b (Printf.sprintf "const long st_%s = " v);
      expr_buf b l.Nest.step;
      Buffer.add_string b ";\n";
      if openmp && l.Nest.kind = Nest.Pardo then begin
        indent b (depth + 1);
        Buffer.add_string b "#pragma omp parallel for\n"
      end;
      indent b (depth + 1);
      Buffer.add_string b
        (Printf.sprintf
           "for (long %s = lo_%s; st_%s > 0 ? %s <= hi_%s : %s >= hi_%s; %s += st_%s) {\n"
           v v v v v v v v v);
      go (depth + 2) rest;
      indent b (depth + 1);
      Buffer.add_string b "}\n";
      indent b depth;
      Buffer.add_string b "}\n"
  in
  go depth0 nest.Nest.loops

let kernel ?openmp ~name (nest : Nest.t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "static void %s(void) {\n" name);
  List.iter
    (fun v -> Buffer.add_string b (Printf.sprintf "  long %s = 0; (void) %s;\n" v v))
    (assigned_scalars nest);
  loops_buf ?openmp b 1 nest;
  Buffer.add_string b "}\n";
  Buffer.contents b

let program ?(openmp = false) ~params ~bounds (nest : Nest.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "#include <stdio.h>\n\n";
  Buffer.add_string b helpers;
  Buffer.add_char b '\n';
  let arrays = Nest.array_arities nest in
  (* Array storage + access macros. *)
  List.iter
    (fun (a, arity) ->
      let dims =
        match List.assoc_opt a bounds with
        | Some ds when List.length ds = arity -> ds
        | Some _ -> invalid_arg ("C emitter: wrong dimension count for " ^ a)
        | None -> invalid_arg ("C emitter: missing bounds for array " ^ a)
      in
      let sizes = List.map (fun (lo, hi) -> hi - lo + 1) dims in
      let total = List.fold_left ( * ) 1 sizes in
      Buffer.add_string b
        (Printf.sprintf "static long %s_data[%d];\n" a total);
      (* #define A(i, j) A_data[((i)-(lo0))*s1 + ((j)-(lo1))] *)
      let args = List.init arity (fun k -> Printf.sprintf "x%d" k) in
      let rec offsets k =
        if k >= arity then []
        else
          let stride =
            List.fold_left ( * ) 1
              (List.filteri (fun idx _ -> idx > k) sizes)
          in
          let lo, _ = List.nth dims k in
          Printf.sprintf "((x%d) - (%d)) * %d" k lo stride :: offsets (k + 1)
      in
      Buffer.add_string b
        (Printf.sprintf "#define %s(%s) %s_data[%s]\n" a
           (String.concat ", " args)
           a
           (String.concat " + " (offsets 0))))
    arrays;
  Buffer.add_char b '\n';
  Buffer.add_string b "int main(void) {\n";
  (* Parameters. *)
  List.iter
    (fun (v, x) -> Buffer.add_string b (Printf.sprintf "  const long %s = %d;\n" v x))
    params;
  (* Scalars. *)
  List.iter
    (fun v -> Buffer.add_string b (Printf.sprintf "  long %s = 0; (void) %s;\n" v v))
    (assigned_scalars nest);
  (* Deterministic fill. *)
  List.iter
    (fun (a, _) ->
      Buffer.add_string b
        (Printf.sprintf
           "  for (long k = 0; k < (long) (sizeof %s_data / sizeof *%s_data); k++) %s_data[k] = (k * 31) %% 97;\n"
           a a a))
    arrays;
  Buffer.add_char b '\n';
  loops_buf ~openmp b 1 nest;
  Buffer.add_char b '\n';
  (* Checksums. *)
  List.iter
    (fun (a, _) ->
      Buffer.add_string b
        (Printf.sprintf
           "  { long sum = 0; for (long k = 0; k < (long) (sizeof %s_data / sizeof *%s_data); k++) sum += %s_data[k]; printf(\"%s %%ld\\n\", sum); }\n"
           a a a a))
    arrays;
  Buffer.add_string b "  return 0;\n}\n";
  Buffer.contents b
