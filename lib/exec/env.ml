type access_kind = Read | Write

type access = { array : string; flat : int; kind : access_kind }

type array_info = {
  los : int array;
  his : int array;
  strides : int array;
  data : int array;
}

type t = {
  arrays : (string, array_info) Hashtbl.t;
  scalars : (string, int) Hashtbl.t;
  funcs : (string, int list -> int) Hashtbl.t;
  mutable tracer : (access -> unit) option;
}

let create () =
  {
    arrays = Hashtbl.create 16;
    scalars = Hashtbl.create 16;
    funcs = Hashtbl.create 16;
    tracer = None;
  }

let declare_array t name bounds =
  if Hashtbl.mem t.arrays name then
    invalid_arg ("Env.declare_array: duplicate " ^ name);
  if bounds = [] then invalid_arg "Env.declare_array: no dimensions";
  let los = Array.of_list (List.map fst bounds) in
  let his = Array.of_list (List.map snd bounds) in
  let n = Array.length los in
  Array.iteri
    (fun k lo -> if his.(k) < lo then invalid_arg "Env.declare_array: empty dim")
    los;
  let strides = Array.make n 1 in
  for k = n - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * (his.(k + 1) - los.(k + 1) + 1)
  done;
  let size = strides.(0) * (his.(0) - los.(0) + 1) in
  Hashtbl.add t.arrays name { los; his; strides; data = Array.make size 0 }

(* The residue steps by 31 modulo 97 from one entry to the next, so the
   loop needs no division; and since the store is typed [int array], it
   needs no write barrier either, which makes it faster than blitting a
   saved image into a major-heap array (an [Array.blit] there goes through
   [caml_modify] per entry). *)
let fill_synthetic (data : int array) =
  let r = ref 0 in
  for k = 0 to Array.length data - 1 do
    Array.unsafe_set data k !r;
    let next = !r + 31 in
    r := if next >= 97 then next - 97 else next
  done

let declare_function t name f = Hashtbl.replace t.funcs name f

let find_function t name = Hashtbl.find_opt t.funcs name

let set_scalar t v x = Hashtbl.replace t.scalars v x

let get_scalar t v =
  match Hashtbl.find_opt t.scalars v with
  | Some x -> x
  | None -> raise Not_found

let find_scalar t v = Hashtbl.find_opt t.scalars v

let info t name =
  match Hashtbl.find_opt t.arrays name with
  | Some i -> i
  | None -> invalid_arg ("Env: undeclared array " ^ name)

let array_info = info

let oob name k x lo hi =
  invalid_arg
    (Printf.sprintf "Env: %s subscript %d = %d out of [%d, %d]" name k x lo hi)

let arity_error name expect got =
  invalid_arg
    (Printf.sprintf "Env: %s expects %d subscripts, got %d" name expect got)

(* Single left-to-right walk: fuses the arity check (previously a separate
   [List.length] pass) with the per-dimension bounds checks and the flat
   offset accumulation. *)
let flat_of (i : array_info) name idx =
  let n = Array.length i.los in
  let rec go k flat = function
    | [] -> if k = n then flat else arity_error name n k
    | x :: rest ->
      if k = n then arity_error name n (k + 1 + List.length rest)
      else begin
        if x < i.los.(k) || x > i.his.(k) then oob name k x i.los.(k) i.his.(k);
        go (k + 1) (flat + ((x - i.los.(k)) * i.strides.(k))) rest
      end
  in
  go 0 0 idx

let trace t array flat kind =
  match t.tracer with None -> () | Some f -> f { array; flat; kind }

let read t name idx =
  let i = info t name in
  let flat = flat_of i name idx in
  trace t name flat Read;
  i.data.(flat)

let write t name idx v =
  let i = info t name in
  let flat = flat_of i name idx in
  trace t name flat Write;
  i.data.(flat) <- v

let call t name args =
  match (name, args) with
  | "abs", [ x ] -> abs x
  | "sgn", [ x ] -> compare x 0
  | _ -> (
    match Hashtbl.find_opt t.funcs name with
    | Some f -> f args
    | None -> invalid_arg ("Env: unknown function " ^ name))

let array_data t name = (info t name).data

let array_size t name = Array.length (info t name).data

let set_tracer t f = t.tracer <- f

let snapshot t =
  Hashtbl.fold (fun name i acc -> (name, Array.copy i.data) :: acc) t.arrays []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
