type t = { rows : int; cols : int; data : int array }
(* Row-major storage, never mutated after construction. *)

type vec = int array

let gcd a b =
  let rec go a b = if b = 0 then a else go b (a mod b) in
  go (abs a) (abs b)

let make rows cols f =
  if rows <= 0 || cols <= 0 then invalid_arg "Intmat.make: non-positive dims";
  let data = Array.make (rows * cols) 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n = make n n (fun i j -> if i = j then 1 else 0)

let rows t = t.rows
let cols t = t.cols
let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Intmat.get: out of bounds";
  t.data.((i * t.cols) + j)

let row t i = Array.init t.cols (fun j -> get t i j)

(* Explicit total order and hash (dimensions first, then row-major
   entries); [t] is abstract, so clients cannot fall back on the
   polymorphic versions. *)
let compare a b =
  if a == b then 0
  else
  let c = Int.compare a.rows b.rows in
  if c <> 0 then c
  else
    let c = Int.compare a.cols b.cols in
    if c <> 0 then c
    else
      let n = Array.length a.data in
      let rec go k =
        if k >= n then 0
        else
          let c = Int.compare a.data.(k) b.data.(k) in
          if c <> 0 then c else go (k + 1)
      in
      go 0

let hash t =
  Array.fold_left (fun h x -> (h * 31) + x) ((t.rows * 31) + t.cols) t.data

let is_identity t =
  t.rows = t.cols
  &&
  let n = t.cols in
  let ok = ref true in
  (try
     for i = 0 to n - 1 do
       for j = 0 to n - 1 do
         if t.data.((i * n) + j) <> (if i = j then 1 else 0) then begin
           ok := false;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !ok

let mul a b =
  if a.cols <> b.rows then invalid_arg "Intmat.mul: dimension mismatch";
  make a.rows b.cols (fun i j ->
      let acc = ref 0 in
      for k = 0 to a.cols - 1 do
        acc := !acc + (get a i k * get b k j)
      done;
      !acc)

(* Fraction-free Bareiss elimination: every division below is exact. *)
let det t =
  if t.rows <> t.cols then invalid_arg "Intmat.det: not square";
  let n = t.rows in
  let a = Array.init n (fun i -> row t i) in
  let sign = ref 1 in
  let prev = ref 1 in
  let result = ref None in
  (try
     for k = 0 to n - 2 do
       if a.(k).(k) = 0 then begin
         (* Find a pivot row below and swap. *)
         let p = ref (-1) in
         for i = k + 1 to n - 1 do
           if !p < 0 && a.(i).(k) <> 0 then p := i
         done;
         if !p < 0 then begin
           result := Some 0;
           raise Exit
         end;
         let tmp = a.(k) in
         a.(k) <- a.(!p);
         a.(!p) <- tmp;
         sign := - !sign
       end;
       for i = k + 1 to n - 1 do
         for j = k + 1 to n - 1 do
           a.(i).(j) <- ((a.(i).(j) * a.(k).(k)) - (a.(i).(k) * a.(k).(j))) / !prev
         done;
         a.(i).(k) <- 0
       done;
       prev := a.(k).(k)
     done
   with Exit -> ());
  match !result with
  | Some d -> d
  | None -> !sign * a.(n - 1).(n - 1)

let is_unimodular t =
  t.rows = t.cols && (let d = det t in d = 1 || d = -1)

(* Minor of [t] deleting row [i] and column [j]. *)
let minor t i j =
  make (t.rows - 1) (t.cols - 1) (fun r c ->
      let r = if r >= i then r + 1 else r in
      let c = if c >= j then c + 1 else c in
      get t r c)

let inverse_unimodular t =
  if not (is_unimodular t) then
    invalid_arg "Intmat.inverse_unimodular: matrix is not unimodular";
  let n = t.rows in
  if n = 1 then make 1 1 (fun _ _ -> get t 0 0 (* +-1 is its own inverse *))
  else
    let d = det t in
    (* inverse = adjugate / det; adjugate(i,j) = cofactor(j,i). *)
    make n n (fun i j ->
        let cof = det (minor t j i) in
        let s = if (i + j) mod 2 = 0 then 1 else -1 in
        s * cof / d)

let interchange n i j =
  if i < 0 || j < 0 || i >= n || j >= n then invalid_arg "Intmat.interchange";
  make n n (fun r c ->
      if r = i then (if c = j then 1 else 0)
      else if r = j then (if c = i then 1 else 0)
      else if r = c then 1
      else 0)

let reversal n i =
  if i < 0 || i >= n then invalid_arg "Intmat.reversal";
  make n n (fun r c -> if r <> c then 0 else if r = i then -1 else 1)

let skew n i j f =
  if i < 0 || j < 0 || i >= n || j >= n || i = j then invalid_arg "Intmat.skew";
  make n n (fun r c ->
      if r = c then 1 else if r = j && c = i then f else 0)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to t.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%d" (get t i j)
    done;
    Format.fprintf ppf "]";
    if i < t.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
