(** Left-child / right-sibling (LC-RS) binary representation of a general
    tree (Knuth's transformation).

    In the binary form every node has at most a [left] child (its leftmost
    child in the general tree) and a [right] child (its next sibling), so a
    node edit operation touches a strictly bounded neighbourhood — the
    property Lemma 1 of the paper builds on.

    Nodes are identified with their 0-based postorder number in the binary
    tree (left subtree, right subtree, node); the root is node [size - 1].
    This numbering is exactly the key space of the PartSJ postorder-pruning
    index layer. *)

(** Built by {!of_postorder}.  The root is the only node without an
    incoming edge. *)
type t = {
  size : int;
  label : int array;        (** label of node [i] *)
  left : int array;         (** left-child id, or [-1] *)
  right : int array;        (** right-child id, or [-1] *)
  gpost : int array;
      (** 0-based postorder number of node [i] {e in the general tree}.
          Binary-postorder ids are unstable under node edit operations (one
          general-tree deletion can move whole sibling chains), but
          general-tree postorder numbers shift by at most one per
          operation — they are the position coordinate of the PartSJ
          postorder-pruning index. *)
}

val of_postorder : Postorder.t -> t
(** [of_postorder p]: the LC-RS form of the tree whose postorder form is
    [p] (its [labels] and [lld]; the keyroots are not read), in [O(size)]
    time without recursion. *)

val root : t -> int
(** Always [size - 1]. *)

val has_left : t -> int -> bool

val has_right : t -> int -> bool

val subtree_sizes : t -> int array
(** [subtree_sizes b]: the nodes in the binary subtree rooted at each
    node, which occupies the ids [i - size + 1 .. i]; [O(size)]. *)

val parents : t -> int array
(** [parents b]: the parent of each node, [-1] at the root; [O(size)]. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering: one line per node in postorder. *)
