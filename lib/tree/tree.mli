(** Rooted ordered labeled trees.

    The central data type of the library: a node carries an interned label
    and an ordered list of children.  Values are immutable; algorithms that
    need random access (TED, partitioning) first compile a tree into a
    compact array form ({!Postorder}, {!Binary_tree}). *)

type t = { label : Label.t; children : t list }

val leaf : Label.t -> t

val node : Label.t -> t list -> t

val size : t -> int
(** Number of nodes. *)

val depth : t -> int
(** Number of nodes on the longest root-to-leaf path (a leaf has depth 1). *)

val degree : t -> int
(** Maximum fanout over all nodes. *)

val label_set : t -> Label.t list
(** Distinct labels, ascending. *)

val equal : t -> t -> bool
(** Structural equality (same shape, same labels, same child order). *)

val compare : t -> t -> int
(** A total order consistent with {!equal}. *)

val hash : t -> int

val map_labels : (Label.t -> Label.t) -> t -> t

val fold : (Label.t -> 'a list -> 'a) -> t -> 'a
(** Bottom-up catamorphism. *)

val iter_preorder : (t -> unit) -> t -> unit

val iter_postorder : (t -> unit) -> t -> unit

val nodes_postorder : t -> t array
(** All subtree roots in postorder; index [i] is the node with postorder
    number [i] (0-based). *)

val nodes_preorder : t -> t array

val subtree_at_postorder : t -> int -> t
(** [subtree_at_postorder t i] is the subtree rooted at the node with
    0-based postorder number [i].  @raise Invalid_argument out of range. *)

val pp : Format.formatter -> t -> unit
(** Bracket notation, e.g. [{a{b}{c{d}}}]. *)

val pp_ascii : Format.formatter -> t -> unit
(** Multi-line ASCII rendering for debugging. *)
