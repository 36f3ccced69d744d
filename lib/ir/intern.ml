(* The bounded table that names root nests.

   A nest id names a request's root nest in the keys of the serve
   response cache, the dependence-vector memo, the root legality entry
   and every derivation id. Those are all memo keys, so the table is
   bounded and its ids are never reused: a nest seen again after its
   shard was flushed gets a fresh id and its memo entries miss. The key
   is the whole nest, compared and hashed structurally ([Nest.hash]
   folds over every node; [Hashtbl.hash] would stop after ten).

   The id is the root of every key chain: evicting a hot nest makes its
   response-cache entry, its vectors, its root legality entry and every
   derivation from it miss at once, one cold search. An entry pins the
   parsed nest, 1.2-1.7 KB for the e2e shapes, so the cap matches the
   dep.vectors cap (under 2 MB full) rather than the warm set of a few
   dozen hot nests. *)
module Nests = Itf_mat.Hashcons.Keyed (struct
  type t = Nest.t

  let equal = Nest.equal
  let hash = Nest.hash
end)

let nest_cap = 1024
let nests : unit Nests.t = Nests.create ~max_size:nest_cap "ir.nest"
let nest_id t = snd (Nests.intern nests t ignore)
