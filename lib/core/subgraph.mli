(** Subgraphs of a δ-partitioning, and the subgraph → subtree matching
    test (Section 3.2, "s matches the subtree rooted at node N").

    A subgraph is one connected component of the partitioned LC-RS tree
    plus its incident bridging edges.  It {e matches} tree [T] at node [N]
    iff mapping its root to [N] maps every component node onto a node of
    [T] with the same label and the same edge configuration:

    - where the component has an internal child edge, [T] must have a child
      there and the structures must match recursively;
    - where the component has an outgoing bridging edge, [T] must have a
      child there (its content belongs to another subgraph and is
      unconstrained);
    - where the component has no edge, [T] must have no child there;
    - the component root preserves whether it has an incoming edge at all
      ([N] is the tree root iff the component root was), but {e not} the
      edge's left/right category — a deletion moves the deleted node's
      first child into its sibling-chain position, flipping that child's
      incoming category while leaving its subgraph otherwise untouched.
      Matching the category (as the paper's Figure 7 narrative suggests)
      would let one deletion change three subgraphs, breaking Lemma 1;
      see DESIGN.md, finding 3.

    An untouched subgraph satisfies exactly this predicate in the edited
    tree, which is what makes the Lemma 2 filter lossless. *)

type t = {
  tree_id : int;       (** which collection tree this subgraph came from *)
  tree_size : int;     (** node count of that tree *)
  root : int;          (** component root node (binary-postorder id) *)
  root_gpost : int;    (** the root's general-tree postorder number — the
                           identifier [p_k] of the postorder-pruning layer *)
  rank : int;          (** k: 1-based position among the tree's subgraphs,
                           ordered by [root_gpost] *)
  n_nodes : int;       (** component size *)
  code : int array;
      (** The component, encoded for {!matches}: [code.(0)] is 1 iff
          the component root is the tree root, then [2 * n_nodes] ints,
          one (label, edge code) pair per component node in preorder
          (node, left subtree, right subtree).  The edge code holds the
          left edge in bits 0–1 and the right edge in bits 2–3: 0 no
          child, 1 a bridging edge, 2 an edge inside the component.  A
          subgraph keeps neither its tree's LC-RS form nor the
          partition's component map: a stored tree costs its index only
          [2 * size + 1] code ints plus one record per subgraph. *)
}

val of_partition : tree_id:int -> Partition.t -> t array
(** The δ subgraphs ordered by rank (ascending root postorder). *)

val label_key : t -> int * int * int
(** [(root label, left slot, right slot)] where a slot is the child's label
    when the child edge is internal to the component, and {!Tsj_tree.Label.epsilon}
    when the child is absent or reached through a bridging edge.  This is
    the key of the label-indexing layer. *)

val matches : t -> Tsj_tree.Binary_tree.t -> int -> bool
(** [matches s target v]: does [s] match [target] at node [v]?  Runs in
    [O(n_nodes)]. *)

val occurs_in : t -> Tsj_tree.Binary_tree.t -> bool
(** Does [s] match [target] at any node?  (Brute-force scan; used by tests
    and by the no-index ablation.) *)
