(** Exact tree edit distance — the verifier shared by all join methods.

    The paper verifies candidates with RTED (Pawlik & Augsten), whose key
    idea is to pick a decomposition strategy based on the shapes of the two
    trees.  This module implements that idea as a hybrid over the
    Zhang–Shasha left-path decomposition and its mirror image (the
    right-path decomposition): for every tree pair it estimates the number
    of relevant subproblems of both and runs the cheaper one.  Both
    variants compute the exact distance, so the choice only affects
    runtime.  (See DESIGN.md, substitution 1.) *)

type algorithm =
  | Zs_left   (** Zhang–Shasha on the trees as given *)
  | Zs_right  (** Zhang–Shasha on the mirrored trees *)
  | Hybrid    (** per-pair choice by estimated subproblem count *)
  | Naive     (** memoized forest recursion; testing only, small trees *)

type prep
(** Per-tree preprocessing (postorder arrays for both decompositions).
    Joins preprocess every tree once and verify pairs with
    {!distance_prep}. *)

val preprocess : Tsj_tree.Tree.t -> prep

val tree : prep -> Tsj_tree.Tree.t

val size : prep -> int

val left_postorder : prep -> Tsj_tree.Postorder.t
(** The tree's postorder form (shared — do not mutate). *)

val right_postorder : prep -> Tsj_tree.Postorder.t
(** The mirrored tree's postorder form, i.e. the preorder reversed
    (shared — do not mutate). *)

val distance : ?algorithm:algorithm -> Tsj_tree.Tree.t -> Tsj_tree.Tree.t -> int

val distance_prep : ?algorithm:algorithm -> prep -> prep -> int

val bounded_distance_prep : ?algorithm:algorithm -> prep -> prep -> int -> int
(** [bounded_distance_prep p1 p2 k] is [min (TED, k + 1)] through the
    τ-banded DP (see {!Zhang_shasha.bounded_distance_postorder}) under the
    chosen decomposition; the {!Naive} algorithm computes fully and
    clamps.  @raise Invalid_argument if [k < 0]. *)

val within : ?algorithm:algorithm -> prep -> prep -> int -> bool
(** [within p1 p2 tau]: is [TED <= tau]?  Uses the banded verifier. *)
