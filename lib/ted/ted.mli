(** Exact tree edit distance — the verifier shared by all join methods.

    The paper verifies candidates with RTED (Pawlik & Augsten).  Here
    one kernel computes every distance: the τ-banded Zhang–Shasha DP on
    the left-path decomposition ({!Zhang_shasha.bounded_distance_postorder}).
    The pair verifier ([Bounds.verify]), which every join and the
    serving path run, calls it at the pair's band
    ({!bounded_distance_prep}); the exact distance ({!distance_prep},
    [tsj ted]) is the same kernel at the full band [|T1| + |T2| - 1].
    (See DESIGN.md, substitution 1.) *)

type prep
(** Per-tree preprocessing (the tree's postorder and its mirror's).
    Joins preprocess every tree once and verify pairs with
    {!bounded_distance_prep}. *)

val preprocess : Tsj_tree.Tree.t -> prep

val of_form : Tsj_tree.Tree.t -> Tsj_tree.Form.t -> prep
(** [of_form tree f] is [preprocess tree] read off [f = Form.of_tree
    tree], which a caller that also needs the form's degree histogram
    has already built.  Shares [f]'s postorders. *)

val tree : prep -> Tsj_tree.Tree.t

val size : prep -> int

val left_postorder : prep -> Tsj_tree.Postorder.t
(** The tree's postorder form (shared — do not mutate). *)

val right_postorder : prep -> Tsj_tree.Postorder.t
(** The mirrored tree's postorder form, i.e. the preorder reversed
    (shared — do not mutate). *)

val distance : Tsj_tree.Tree.t -> Tsj_tree.Tree.t -> int

val distance_prep : prep -> prep -> int
(** The exact TED: [bounded_distance_prep p1 p2 (size p1 + size p2 - 1)].
    The band is sound because TED [<= |T1| + |T2| - 1]: keep the two
    roots mapped, delete every other node of T1 and insert every other
    node of T2. *)

val bounded_distance_prep : prep -> prep -> int -> int
(** [bounded_distance_prep p1 p2 k] is [min (TED, k + 1)] through the
    τ-banded DP on the left postorders (see
    {!Zhang_shasha.bounded_distance_postorder}).
    @raise Invalid_argument if [k < 0]. *)
