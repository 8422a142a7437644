(** δ-partitioning of LC-RS binary trees (Section 3.3 of the paper).

    A δ-partitioning removes [δ - 1] edges ("bridging edges") from the
    binary tree, leaving δ connected components ("subgraphs").  The
    partitioning scheme maximizes the minimum component size: small
    components are subgraphs of many trees and generate spurious join
    candidates.

    - {!partitionable} is the greedy linear-time (δ,γ)-partitionable test
      (paper Algorithm 2): walk the tree in postorder keeping per-node
      [size] and [detached] counters and cut a γ-subtree as soon as the
      live subtree reaches γ nodes.
    - {!max_min_size} binary-searches the largest feasible γ (Algorithm 3)
      between the bounds ⌊|T|/δ⌋ and ⌊(|T|+δ-1)/(2δ-1)⌋.
    - {!partition} extracts the actual components for that γ; component
      ids are ordered by the postorder number of their root node, which is
      the order [k] the postorder-pruning index layer depends on.  One
      scratch array serves the binary search and the final cut, which
      also yields the component sizes.
    - {!random_partition} cuts δ-1 uniformly random edges instead — the
      ablation baseline the paper reports PartSJ beats by 50–300%. *)

type t = {
  btree : Tsj_tree.Binary_tree.t;
  delta : int;              (** number of components *)
  gamma : int;              (** size constraint achieved (0 for random) *)
  roots : int array;        (** component id -> its root node; strictly
                                increasing, [roots.(delta-1)] is the tree
                                root.  The removed edges are the incoming
                                edges of the other roots. *)
  sizes : int array;        (** component id -> its node count *)
}

val partitionable : Tsj_tree.Binary_tree.t -> delta:int -> gamma:int -> bool
(** @raise Invalid_argument if [delta < 1] or [gamma < 1]. *)

val max_min_size : Tsj_tree.Binary_tree.t -> delta:int -> int
(** Largest γ such that the tree is (δ,γ)-partitionable.
    @raise Invalid_argument if [delta < 1] or the tree has fewer than
    [delta] nodes (no δ-partitioning exists). *)

val partition : Tsj_tree.Binary_tree.t -> delta:int -> t
(** Balanced partition at [gamma = max_min_size].  Same preconditions as
    {!max_min_size}. *)

val random_partition : Tsj_util.Prng.t -> Tsj_tree.Binary_tree.t -> delta:int -> t
(** δ-partitioning along [delta - 1] distinct uniformly random edges. *)

val assignment : t -> int array
(** Node -> component id in [[0, delta)], computed on the call in
    [O(size * delta)]. *)

val component_sizes : t -> int array

val bridging_edges : t -> (int * int) list
(** The removed [(parent, child)] edges; exactly [delta - 1] of them. *)
