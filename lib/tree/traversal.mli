(** Label sequences from tree traversals.

    The STR baseline (Guha et al.) lower-bounds the tree edit distance by
    the string edit distance between preorder and between postorder label
    sequences; these functions produce those sequences as interned-label
    arrays. *)

val preorder_labels : Tree.t -> Label.t array

val postorder_labels : Tree.t -> Label.t array
