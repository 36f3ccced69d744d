module Depvec = Itf_dep.Depvec
module Dir = Itf_dep.Dir

let carried_level (d : Depvec.t) =
  let rec go k =
    if k >= Array.length d then None
    else
      let s = Depvec.elem_signs d.(k) in
      if (not s.Dir.neg) && not s.Dir.zero then Some k (* definitely positive *)
      else if (not s.Dir.neg) && (not s.Dir.pos) && s.Dir.zero then go (k + 1)
        (* definitely zero *)
      else None
  in
  go 0

let may_be_carried_by (d : Depvec.t) level =
  level >= 0
  && level < Array.length d
  && (Depvec.elem_signs d.(level)).Dir.pos
  && Array.for_all
       (fun e -> (Depvec.elem_signs e).Dir.zero)
       (Array.sub d 0 level)

let parallelizable vectors level =
  not (List.exists (fun d -> may_be_carried_by d level) vectors)

let parallelizable_loops ~depth vectors =
  List.filter (parallelizable vectors) (List.init depth Fun.id)

let vectorizable_innermost ~depth vectors =
  depth > 0 && parallelizable vectors (depth - 1)

let fully_permutable ~depth vectors ~i ~j =
  0 <= i && i <= j && j < depth
  && List.for_all
       (fun (d : Depvec.t) ->
         (* carried strictly outside the band... *)
         (match carried_level d with Some l when l < i -> true | _ -> false)
         || (* ...or non-negative in every band component *)
         (let ok = ref true in
          for k = i to j do
            if (Depvec.elem_signs d.(k)).Dir.neg then ok := false
          done;
          !ok))
       vectors
