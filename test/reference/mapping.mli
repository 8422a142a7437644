(** Optimal edit mappings (alignments) between two trees.

    The join only needs distances, but downstream applications (data
    integration, diffing) want to know {e which} nodes correspond.  This
    module extracts an optimal TED mapping by backtracking through the
    Zhang–Shasha dynamic program: a set of node pairs that is one-to-one,
    order-preserving and ancestor-preserving, whose cost (renames with
    different labels + unmatched nodes on either side) equals the exact
    tree edit distance.

    Nodes are identified by their 0-based postorder numbers. *)

type op =
  | Match of int * int   (** same label on both sides *)
  | Rename of int * int  (** mapped, labels differ — costs 1 *)
  | Delete of int        (** node of the first tree, unmapped — costs 1 *)
  | Insert of int        (** node of the second tree, unmapped — costs 1 *)

type t = {
  ops : op list;  (** every node of both trees appears exactly once *)
  cost : int;     (** the exact TED of the two trees *)
}

val compute : Tsj_tree.Tree.t -> Tsj_tree.Tree.t -> t

val mapped_pairs : t -> (int * int) list
(** The (i, j) pairs from [Match] and [Rename] ops, in postorder of the
    first tree. *)

val pp : source:Tsj_tree.Tree.t -> target:Tsj_tree.Tree.t ->
  Format.formatter -> t -> unit
(** Human-readable script with node labels resolved. *)
