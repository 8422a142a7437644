(** Compact postorder array form of a general tree.

    This is the input representation of the Zhang–Shasha TED algorithm:
    nodes are identified with their 0-based postorder numbers, and the
    leftmost-leaf-descendant array [lld] plus the LR-keyroots drive the
    dynamic program. *)

(** Built by {!Form.of_tree}, which fills a tree's postorder and its
    mirror's in the same walk. *)
type t = {
  size : int;
  labels : int array;    (** [labels.(i)]: label of postorder node [i] *)
  lld : int array;       (** leftmost leaf descendant of node [i] *)
  keyroots : int array;  (** LR-keyroots in ascending order: the root and
                             every node that is not its parent's first
                             child *)
}
