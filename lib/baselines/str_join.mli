(** The STR baseline (adopted from Guha et al., TODS 2006, as in the
    paper's experimental setup): a tree pair survives candidate generation
    only if both the preorder and the postorder label sequences of the two
    trees are within string edit distance [τ] — both string distances
    lower-bound the TED.

    The string filters run as banded (threshold-limited) edit distance
    computations in [O(τ · n)] per pair over the size-window sweep;
    survivors are decided by the pair verifier every method shares
    ({!Tsj_ted.Bounds.verify}, cascade on). *)

val join :
  ?metric:Tsj_ted.Bounds.metric ->
  trees:Tsj_tree.Tree.t array -> tau:int -> unit -> Tsj_join.Types.output
