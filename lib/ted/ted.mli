(** Exact tree edit distance — the verifier shared by all join methods.

    The paper verifies candidates with RTED (Pawlik & Augsten), whose key
    idea is to pick a decomposition strategy based on the shapes of the two
    trees.  The unbounded {!distance_prep} implements that idea as a
    hybrid over the Zhang–Shasha left-path decomposition and its mirror
    image (the right-path decomposition): for every tree pair it estimates
    the number of relevant subproblems of both and runs the cheaper one.
    The τ-banded {!bounded_distance_prep}, which the pair verifier
    ([Bounds.verify]) runs for every join and the serving path, always
    runs the left decomposition: its band already bounds the work, and
    the choice measured within noise there.  (See DESIGN.md,
    substitution 1.) *)

type prep
(** Per-tree preprocessing (postorder arrays for both decompositions).
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
(** The exact TED, under whichever decomposition has fewer relevant
    subproblems for this pair. *)

val bounded_distance_prep : prep -> prep -> int -> int
(** [bounded_distance_prep p1 p2 k] is [min (TED, k + 1)] through the
    τ-banded DP on the left postorders (see
    {!Zhang_shasha.bounded_distance_postorder}).
    @raise Invalid_argument if [k < 0]. *)
