(** Every array form of a tree, built in one walk.

    The join and the streaming index read a tree through three array
    forms: its postorder (the Zhang–Shasha kernel, the traversal-string
    bounds), its mirror's postorder (the preorder reversed: the
    right-path decomposition, the greedy upper bound) and its LC-RS
    binary tree (partitioning, subgraph codes, the index probe).  The
    verifier's degree histogram comes with them.  {!of_tree} fills all
    of them in a single recursion over the {!Tree.t}. *)

type t = {
  size : int;
  left : Postorder.t;  (** the tree's postorder form *)
  mirror : Postorder.t;
      (** the mirrored tree's postorder form: node [x] with preorder
          number [pre] is mirror node [size - 1 - pre] *)
  degrees : int array;
      (** [degrees.(d)]: the number of nodes with [d] children; the
          length is the largest degree plus one *)
  lcrs : Binary_tree.t;  (** the left-child / right-sibling form *)
}

val of_tree : Tree.t -> t
