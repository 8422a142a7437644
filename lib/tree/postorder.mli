(** Compact postorder array form of a general tree.

    This is the input representation of the Zhang–Shasha TED algorithm:
    nodes are identified with their 0-based postorder numbers, and the
    leftmost-leaf-descendant array [lld] plus the LR-keyroots drive the
    dynamic program. *)

type t = {
  size : int;
  labels : int array;    (** [labels.(i)]: label of postorder node [i] *)
  lld : int array;       (** leftmost leaf descendant of node [i] *)
  keyroots : int array;  (** LR-keyroots in ascending order: the root and
                             every node that is not its parent's first
                             child *)
}

val of_tree : Tree.t -> t

val both : Tree.t -> t * t
(** [both t] is [(of_tree t, of_tree (mirror t))] in one walk, where
    [mirror t] reverses every child list: the mirror's postorder is
    [t]'s preorder reversed.  The second form drives the right-path
    decomposition of the TED and the traversal-string bounds. *)

val n_leaves : t -> int

val subtree_size : t -> int -> int
(** [subtree_size p i] is [i - lld.(i) + 1], the number of nodes in the
    subtree rooted at postorder node [i]. *)

val keyroot_cost : t -> int
(** [Σ_{k ∈ keyroots} subtree_size k] — the per-tree factor of the number
    of relevant subproblems Zhang–Shasha solves; the hybrid TED strategy
    compares this between the left-path and right-path decompositions. *)
