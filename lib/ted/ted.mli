(** Exact tree edit distance — the verifier shared by all join methods.

    The paper verifies candidates with RTED (Pawlik & Augsten).  Here
    one kernel computes every distance: the τ-banded Zhang–Shasha DP on
    the left-path decomposition ({!Zhang_shasha.bounded_distance_postorder}).
    The pair verifier ([Bounds.verify]), which every join and the
    serving path run, calls it at the pair's band
    ({!bounded_distance_prep}); the exact distance ({!distance_prep},
    [tsj ted]) is the same kernel at the full band [|T1| + |T2| - 1].
    (See DESIGN.md, substitution 1.) *)

type prep = Tsj_tree.Form.t
(** Per-tree preprocessing: the tree's stored form (its postorder and
    its mirror's, and its degree histogram), nothing else.  Joins
    preprocess every tree once and verify pairs with
    {!bounded_distance_prep}, which reads the postorders ([left]). *)

val preprocess : Tsj_tree.Tree.t -> prep
(** [Form.of_tree]. *)

val distance : Tsj_tree.Tree.t -> Tsj_tree.Tree.t -> int

val distance_prep : prep -> prep -> int
(** The exact TED: [bounded_distance_prep p1 p2 (p1.size + p2.size - 1)].
    The band is sound because TED [<= |T1| + |T2| - 1]: keep the two
    roots mapped, delete every other node of T1 and insert every other
    node of T2. *)

val bounded_distance_prep : prep -> prep -> int -> int
(** [bounded_distance_prep p1 p2 k] is [min (TED, k + 1)] through the
    τ-banded DP on the left postorders (see
    {!Zhang_shasha.bounded_distance_postorder}).
    @raise Invalid_argument if [k < 0]. *)
