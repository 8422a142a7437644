(** The pair verifier: lower and upper bounds on the tree edit distance,
    the staged filter cascade built from them, and the banded kernel
    behind it.  Every join method (PartSJ, STR, SET, the nested loop) and
    the streaming index decide their candidate pairs with {!verify}, the
    only caller of the exact kernels, so the methods differ only in how
    they generate candidates.

    Every lower bound satisfies [bound a b <= TED] (so [bound > τ] prunes
    a candidate pair without an exact TED computation); {!upper}
    satisfies [upper a b >= TED] (so [upper <= τ] certifies a result
    pair), and so does the cost of every mapping {!mapping_certifies}
    passes.  The tests check these inequalities on random pairs, the
    mapping check against a reference on every mapping between trees of
    at most 4 nodes, and the cascade's outcomes on every pair of trees
    of at most 5 nodes.

    Provenance of each lower bound:
    - size: one edit operation changes the node count by at most 1;
    - label histogram: one operation changes the label bag's L1 distance by
      at most 2 (rename removes one label and adds another);
    - degree histogram: one operation changes the degree bag's L1 distance
      by at most 3 (the reconnected parent's degree moves, and a node
      appears or disappears);
    - preorder / postorder strings: Guha et al. — each operation edits the
      traversal label sequence in exactly one position. *)

type t
(** The per-tree form, built once per tree: its {!Ted.prep} plus a
    sorted label bag and a degree histogram.  The traversal strings and
    the greedy walk read the prep's postorders, so a form costs about
    one word per node beyond its prep. *)

val of_form : Tsj_tree.Tree.t -> Tsj_tree.Form.t -> t
(** [of_form tree f] is the form of [tree] read off [f = Form.of_tree
    tree]: its postorders and degree histogram are shared, and only the
    label bag is computed, by {!Tsj_util.Multiset.of_unsorted}. *)

val of_tree : Tsj_tree.Tree.t -> t
(** [of_form tree (Form.of_tree tree)]. *)

val prep : t -> Ted.prep

val size_bound : t -> t -> int

val label_bound : t -> t -> int

val degree_bound : t -> t -> int

val linear_lower : t -> t -> int
(** [max] of the size, label-bag and degree-bag bounds: the linear-time
    lower bounds, and the [lower] of every {!sandwich}.  The
    traversal SEDs are left out: unbanded they cost [O(|a| * |b|)] each,
    and the cascade's bounded ones answer only up to τ. *)

val upper : t -> t -> int
(** Greedy-mapping upper bound: cost of the edit script that renames
    mismatched roots, edits children matched position by position and
    deletes/inserts the unmatched tails.  The script's mapping sends
    disjoint subtrees to disjoint subtrees, so
    [TED <= constrained distance <= upper]. *)

val certify : t -> t -> int -> bool
(** [certify a b k] is the cascade's alignment certificate on its own:
    [true] when an optimal alignment of the postorder label strings (or
    else of the mirrors' postorders, i.e. the preorders reversed), of
    cost at most [k], passes {!mapping_certifies} at [k].  Then
    [TED a b <= k].
    @raise Invalid_argument if [k < 0]. *)

val mapping_certifies : t -> t -> int array -> int -> bool
(** [mapping_certifies a b mate k] checks a node mapping given as
    [mate.(x)], the postorder number of the node of [b] mapped to
    postorder node [x] of [a], or [-1].  [true] iff the pairs strictly
    increase in both postorders, ancestry is kept (for each pair
    [(x, y)], as many mapped nodes of [a] come before the leftmost leaf
    of [x] as mapped nodes of [b] before the leftmost leaf of [y]) and
    the cost (renames plus unmapped nodes of both trees) is at most
    [k].  The first two tests make the
    mapping keep both the postorder and the preorder order, hence a
    valid edit mapping, so then [TED a b <= k].
    @raise Invalid_argument if [mate] is shorter than [a]. *)

(** Cascade stage that rejected a pair (for the per-stage counters). *)
type stage = Size | Labels | Degrees | Sed

type outcome =
  | Pruned of stage  (** some lower bound exceeds τ: not a result *)
  | Accept of int
      (** the bounds closed (lower = upper <= τ, the upper bound either
          the greedy one or an alignment certificate): a result with
          exactly this distance, no kernel run *)
  | Verify of { band : int }
      (** undecided: run the exact kernel with this band threshold
          ([band = τ], or [band = upper - 1 < τ] when the upper bound
          already admits the pair — the banded kernel then still
          returns the exact distance since [TED <= upper]) *)

type metric =
  | Ted          (** unrestricted tree edit distance (the paper's metric) *)
  | Constrained  (** Zhang's constrained edit distance ({!Constrained});
                     it never underestimates TED and never exceeds
                     {!upper}, so every bound and the greedy accept stay
                     lossless for it *)

val cascade : ?metric:metric -> tau:int -> t -> t -> outcome
(** The staged verifier, cheapest first with short-circuit:
    + size ([O(1)]);
    + label histogram ([O(n)] merge walk, stopped once the bags differ
      in 2τ + 1 labels, which decides the stage);
    + degree histogram ([O(max degree)]);
    + bounded preorder then postorder SED (diagonal transition: about
      [O(τ^2)] plus the matched runs on a near pair, [O(τ * n)] at
      worst);
    + greedy upper bound ([O(n)]): [Accept] when it equals the largest
      lower bound [lb];
    + alignment certificate ([O(n)], [metric = Ted] only, default):
      when the greedy bound is above [lb] and a traversal SED equals
      [lb], trace back one optimal alignment of that SED (postorder
      first, then the mirror's) and [Accept lb] if it passes
      {!mapping_certifies} at [lb].

    The certificate is sound whatever the trace back returns, since
    it re-checks the mapping: a passing mapping is a valid edit mapping
    of cost at most [lb], so [lb <= TED <= lb].  A valid (Tai) mapping
    need not be a constrained mapping, so [Constrained] skips it.

    All scratch comes from the per-domain {!Arena}: no stage
    allocates.  Lossless for the TED verifier and, without the
    certificate, for any metric wedged between TED and the greedy
    script cost (e.g. the constrained edit distance).
    @raise Invalid_argument if [tau < 0]. *)

type verdict =
  | Pruned of stage  (** a lower bound exceeds τ: not a result *)
  | Accepted of int  (** the bounds sandwich closed at this distance *)
  | Verified of int  (** the kernel's [min (distance, band + 1)], which is
                         the exact distance when it is [<= τ] *)
  | Unverified       (** [admit] refused the kernel run: undecided *)

val verify :
  ?metric:metric ->
  ?admit:(t -> t -> bool) ->
  cascade:bool ->
  tau:int ->
  t ->
  t ->
  verdict
(** [verify ~cascade ~tau a b] decides one candidate pair.  With
    [cascade:true] it runs the {!cascade} (for [metric], default [Ted]),
    then the banded kernel of [metric] at the cascade's band when the pair is left
    undecided; with [cascade:false] it runs the τ-banded kernel alone.
    Either way a pair is a result iff it comes back [Accepted d] or
    [Verified d] with [d <= tau], and then [d] is its exact distance, so
    the switch changes only which stage decides.  [admit a b] (default:
    always) is asked just before the kernel would run; [false] makes the
    pair [Unverified] (a per-pair budget).
    @raise Invalid_argument if [tau < 0]. *)

val sandwich : t -> t -> int * int
(** [(linear_lower a b, upper a b)]: the bounds reported for a pair that
    a budget leaves {!Unverified}. *)
