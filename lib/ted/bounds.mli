(** The pair verifier: lower and upper bounds on the tree edit distance,
    the staged filter cascade built from them, and the banded kernel
    behind it.  The PartSJ join and the streaming index both verify
    through it.

    Every lower bound satisfies [bound a b <= TED] (so [bound > τ] prunes
    a candidate pair without an exact TED computation); {!upper}
    satisfies [upper a b >= TED] (so [upper <= τ] certifies a result
    pair).  The tests check both inequalities on random pairs, and the
    cascade's outcomes on every pair of trees of at most 5 nodes.

    Provenance of each lower bound:
    - size: one edit operation changes the node count by at most 1;
    - label histogram: one operation changes the label bag's L1 distance by
      at most 2 (rename removes one label and adds another);
    - degree histogram: one operation changes the degree bag's L1 distance
      by at most 3 (the reconnected parent's degree moves, and a node
      appears or disappears);
    - preorder / postorder strings: Guha et al. — each operation edits the
      traversal label sequence in exactly one position;
    - Euler string: Akutsu et al. — each operation edits the Euler tour in
      at most two positions. *)

type t
(** The per-tree form, built once per tree: its {!Ted.prep} plus a
    sorted label bag and a degree histogram.  The traversal strings and
    the greedy walk read the prep's postorders, so a form costs about
    one word per node beyond its prep. *)

val of_prep : Ted.prep -> t
(** [O(n log n)] for an [n]-node tree: a linear pass for the degree
    histogram and an integer merge sort for the label bag
    ({!Tsj_util.Multiset.of_unsorted}). *)

val prep : t -> Ted.prep

val size_bound : t -> t -> int

val label_bound : t -> t -> int

val degree_bound : t -> t -> int

val traversal_bound : t -> t -> int
(** [max preorder_sed postorder_sed] — the STR filter (unbanded). *)

val euler_bound : t -> t -> int
(** Builds both Euler strings on the call (no form stores them). *)

val linear_lower : t -> t -> int
(** [max] of the size, label-bag and degree-bag bounds: the linear-time
    lower bounds, and the [lower] of every sandwich a budget leaves
    unverified (a degraded query's tail, a quarantined join pair).  The
    traversal SEDs are left out: unbanded they cost [O(|a| * |b|)] each,
    and the cascade's bounded ones answer only up to τ. *)

val upper : t -> t -> int
(** Greedy-mapping upper bound: cost of the edit script that renames
    mismatched roots, edits children matched position by position and
    deletes/inserts the unmatched tails.  The script's mapping sends
    disjoint subtrees to disjoint subtrees, so
    [TED <= constrained distance <= upper]. *)

(** Cascade stage that rejected a pair (for the per-stage counters). *)
type stage = Size | Labels | Degrees | Sed

type outcome =
  | Pruned of stage  (** some lower bound exceeds τ: not a result *)
  | Accept of int
      (** the bounds sandwich closed (lower = upper <= τ): a result
          with exactly this distance, no kernel run *)
  | Verify of { band : int }
      (** undecided: run the exact kernel with this band threshold
          ([band = τ], or [band = upper - 1 < τ] when the upper bound
          already admits the pair — the banded kernel then still
          returns the exact distance since [TED <= upper]) *)

val cascade : tau:int -> t -> t -> outcome
(** The staged verifier, cheapest first with short-circuit:
    size ([O(1)]) → label histogram ([O(n)] merge walk, stopped once
    the bags differ in 2τ + 1 labels, which decides the stage) → degree
    histogram ([O(max degree)]) → bounded preorder then postorder SED
    (diagonal transition: about [O(τ^2)] plus the matched runs on a near
    pair, [O(τ * n)] at worst) → greedy upper bound ([O(n)]).  None of
    the stages allocates.  Lossless for the TED verifier and for any
    metric wedged between TED and the greedy script cost (e.g. the
    constrained edit distance).
    @raise Invalid_argument if [tau < 0]. *)

val distance : tau:int -> t -> t -> int
(** [distance ~tau a b] is [min (TED, tau + 1)]: the {!cascade}, then
    {!Ted.bounded_distance_prep} at the cascade's band when it leaves
    the pair undecided.  Equal to [Ted.bounded_distance_prep] at [tau]
    on the two preps.  @raise Invalid_argument if [tau < 0]. *)
