(* Edit balls of small trees, and the sweeps that check the candidate
   filter and the router's shard windows on them: every ordered tree of
   a few nodes, every tree within [tau] node edits of it, and whether
   {!Tsj_core.Size_bands.probe} finds each of those, or a query of the
   centre consults each one's shard.  No TED is needed: a tree reached
   by [tau] edits is within [tau] by construction. *)

module Tree = Tsj_tree.Tree
module Edit_op = Tsj_tree.Edit_op
module Binary_tree = Tsj_tree.Binary_tree
module Size_bands = Tsj_core.Size_bands
module Shard = Tsj_server.Shard

(* Trees as keys: the polymorphic hash reads only a few nodes of a tree. *)
module Trees = Hashtbl.Make (struct
  type t = Tree.t

  let equal = Tree.equal
  let hash = Tree.hash
end)

(* Every ordered tree of exactly [n] nodes over [labels]. *)
let rec trees_of_size labels n =
  List.concat_map
    (fun label -> List.map (fun kids -> Tree.node label kids) (forests_of_size labels (n - 1)))
    labels

and forests_of_size labels m =
  if m = 0 then [ [] ]
  else
    List.concat_map
      (fun k ->
        List.concat_map
          (fun first -> List.map (fun rest -> first :: rest) (forests_of_size labels (m - k)))
          (trees_of_size labels k))
      (List.init m succ)

let trees_upto labels n = List.concat_map (trees_of_size labels) (List.init n succ)

(* Every distinct tree one node edit away from [t] (renames to [labels],
   deletions, insertions labelled from [labels], including a new root
   above [t]), [t] itself excluded. *)
let neighbours labels t =
  let nodes = Tree.nodes_postorder t in
  let ops = ref [] in
  Array.iteri
    (fun node (sub : Tree.t) ->
      let k = List.length sub.Tree.children in
      ops := Edit_op.Delete { node } :: !ops;
      List.iter
        (fun label ->
          ops := Edit_op.Rename { node; label } :: !ops;
          for first_child = 0 to k do
            for n_children = 0 to k - first_child do
              ops := Edit_op.Insert { parent = node; first_child; n_children; label } :: !ops
            done
          done)
        labels)
    nodes;
  let seen = Trees.create 64 in
  List.iter (fun label -> Trees.replace seen (Tree.node label [ t ]) ()) labels;
  List.iter
    (fun op ->
      match Edit_op.apply t op with
      | t' -> if not (Tree.equal t t') then Trees.replace seen t' ()
      | exception Invalid_argument _ -> () (* an ineligible root deletion *))
    !ops;
  List.of_seq (Trees.to_seq_keys seen)

(* Every distinct tree within [radius] edits of [t], [t] excluded. *)
let ball labels radius t =
  let seen = Trees.create 256 in
  Trees.replace seen t ();
  let rec grow frontier r =
    if r > 0 then begin
      let next =
        List.concat_map
          (fun u ->
            List.filter
              (fun u' ->
                let fresh = not (Trees.mem seen u') in
                if fresh then Trees.replace seen u' ();
                fresh)
              (neighbours labels u))
          frontier
      in
      grow next (r - 1)
    end
  in
  grow [ t ] radius;
  Trees.remove seen t;
  List.of_seq (Trees.to_seq_keys seen)

(* For every tree [t] of [trees]: index the trees of its radius-[tau]
   ball in fresh bands of [mode], probe [t] over the window
   [|t| - tau, |t| + tau] and call [on_miss t t'] for every ball member
   [t'] that is not a candidate.  Returns the number of misses. *)
let sweep ?mode ~labels ~tau ?(on_miss = fun _ _ -> ()) trees =
  let lcrs x = Binary_tree.of_postorder (Tsj_tree.Form.of_tree x).left in
  let misses = ref 0 in
  List.iter
    (fun t ->
      let members = Array.of_list (ball labels tau t) in
      let bands = Size_bands.create ?mode ~tau () in
      Array.iteri
        (fun id t' -> ignore (Size_bands.insert bands id (lcrs t')))
        members;
      let b = lcrs t in
      let size = b.Binary_tree.size in
      let found = Array.make (Array.length members) false in
      List.iter
        (fun id -> found.(id) <- true)
        (Size_bands.probe bands ~lo:(size - tau) ~hi:(size + tau) b).Size_bands.candidates;
      Array.iteri
        (fun id hit ->
          if not hit then begin
            incr misses;
            on_miss t members.(id)
          end)
        found)
    trees;
  !misses

(* For every tree [t] of [trees], every map of [maps] and every member
   [t'] of [t]'s radius-[tau] ball: the shard owning [t'] must be one
   that a query of [t] at [tau] consults.  Calls [on_miss m t t'] for
   every miss and returns their number. *)
let shard_sweep ~labels ~tau ?(on_miss = fun _ _ _ -> ()) maps trees =
  let misses = ref 0 in
  List.iter
    (fun t ->
      let members = ball labels tau t in
      List.iter
        (fun m ->
          let window = Shard.shards_for m ~tau (Tree.size t) in
          List.iter
            (fun t' ->
              if not (List.mem (Shard.shard_of_tree m t') window) then begin
                incr misses;
                on_miss m t t'
              end)
            members)
        maps)
    trees;
  !misses
