(** The stored array form of a tree, built in one walk.

    The verifier reads a tree through two array forms: its postorder
    (the Zhang–Shasha kernel, the traversal-string bounds) and its
    mirror's postorder (the preorder reversed: the preorder string, the
    greedy upper bound), plus its degree histogram.  {!of_tree} fills
    all of them in a single recursion over the {!Tree.t}.  This is the
    only per-tree form the joins and the streaming index keep: the tree
    itself is not stored, and {!to_tree} rebuilds it from [left] when it
    is asked for.  Nor is the LC-RS binary tree that partitioning,
    subgraph codes and the index probe read: {!Binary_tree.of_postorder}
    derives it from [left] while the tree is probed or indexed. *)

type t = {
  size : int;
  left : Postorder.t;  (** the tree's postorder form *)
  mirror : Postorder.t;
      (** the mirrored tree's postorder form: node [x] with preorder
          number [pre] is mirror node [size - 1 - pre].  Its [keyroots]
          are [[||]]: no kernel runs on the mirror. *)
  degrees : int array;
      (** [degrees.(d)]: the number of nodes with [d] children; the
          length is the largest degree plus one *)
}

val of_tree : Tree.t -> t

val to_tree : Postorder.t -> Tree.t
(** [to_tree p]: the tree whose postorder form is [p], read off its
    [labels] and [lld] ([to_tree (of_tree x).left] equals [x]). *)

val equal_tree : Tree.t -> Postorder.t -> bool
(** [equal_tree x p] is [Tree.equal x (to_tree p)], decided in one
    postorder walk of [x] against [p]'s labels and leftmost leaves,
    stopped at the first difference, without allocating. *)
