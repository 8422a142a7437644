(** The stored array forms of a tree, built in one walk.

    The verifier reads a tree through two array forms: its postorder
    (the Zhang–Shasha kernel, the traversal-string bounds) and its
    mirror's postorder (the preorder reversed: the right-path
    decomposition, the greedy upper bound), plus its degree histogram.
    {!of_tree} fills all of them in a single recursion over the
    {!Tree.t}.  The LC-RS binary tree that partitioning, subgraph codes
    and the index probe read is not stored: {!Binary_tree.of_postorder}
    derives it from [left] while the tree is probed or indexed. *)

type t = {
  size : int;
  left : Postorder.t;  (** the tree's postorder form *)
  mirror : Postorder.t;
      (** the mirrored tree's postorder form: node [x] with preorder
          number [pre] is mirror node [size - 1 - pre] *)
  degrees : int array;
      (** [degrees.(d)]: the number of nodes with [d] children; the
          length is the largest degree plus one *)
}

val of_tree : Tree.t -> t
