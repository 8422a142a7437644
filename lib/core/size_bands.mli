(** The per-size inverted lists of Algorithm 1.

    The δ-partitioned trees (δ = 2τ + 1) of every size share one
    two-layer index ({!Two_layer_index}), whose keys carry the tree
    size.  What remains of a size's band is the overflow list of its
    sub-δ trees, which cannot be δ-partitioned (a tree of [n] nodes has
    only [n - 1] edges) and are therefore always candidates within a
    probe's size window.  This is the one place that knows that layout
    rule; the batch join ({!Partsj}), the streaming index
    ({!Incremental}) and through it the server store all index and probe
    through it.

    A probe covers a caller-chosen window of sizes: the self-join sweep
    processes trees in ascending size and probes [[size - τ, size]], the
    stream sees trees in any order and probes [[size - τ, size + τ]]
    (Lemma 2 partitions the {e indexed} tree, so the direction of the
    size difference does not matter). *)

type t

val create : ?mode:Two_layer_index.mode -> tau:int -> unit -> t
(** Empty bands for threshold [tau]; the two-layer index uses [mode]
    (default {!Two_layer_index.Two_sided}).
    @raise Invalid_argument if [tau < 0]. *)

val insert :
  ?partition:(Tsj_tree.Binary_tree.t -> delta:int -> Partition.t) ->
  t ->
  int ->
  Tsj_tree.Binary_tree.t ->
  int
(** [insert bands id btree] indexes tree [id] (LC-RS form [btree]): on
    the overflow list of its size when it has fewer than δ nodes,
    otherwise as the subgraphs of its δ-partitioning.  Returns the
    number of subgraphs indexed (0 for an overflow tree).  [partition]
    (default {!Partition.partition}) is called at most once, so a seeded
    random partitioning consumes its generator in insertion order. *)

type probe = {
  candidates : int list;  (** distinct tree ids, in discovery order *)
  probed : int;  (** subgraphs returned by the two-layer index lookups *)
  matched : int;  (** probed subgraphs that matched and added a candidate *)
  small_hits : int;  (** candidates taken from the overflow lists *)
}

val probe : t -> lo:int -> hi:int -> Tsj_tree.Binary_tree.t -> probe
(** [probe bands ~lo ~hi btree] collects every indexed tree whose size
    lies in [[lo, hi]] and that is a candidate for [btree]: all overflow
    trees of those sizes (in ascending size), then every tree with a
    subgraph that {!Subgraph.matches} [btree] at some node, in
    {!Two_layer_index.probe} order.  The twig cursor of [btree] is
    built only when the index is not empty. *)
