(** Dataset profiles: deterministic stand-ins for the paper's corpora.

    The original corpora are not redistributable/offline-available, so each
    profile reproduces the *published statistics* of its namesake (average
    size, label alphabet, average/maximum depth, shape class) with the
    mother-tree sampling model of {!Generator.Mother} plus the decay
    perturbation — see DESIGN.md, substitution 2.  The paper's numbers:

    - Swissprot: 100K flat, medium trees — avg size 62.37, 84 labels,
      avg depth 2.65, max depth 4;
    - Treebank: 50K small deep trees — avg size 45.12, 218 labels,
      avg depth 6.93, max depth 35;
    - Sentiment: 10K tagged sentences — avg size 37.31, 5 labels,
      avg depth 10.84, max depth 30;
    - Synthetic: 10K trees — fanout 3, depth 5, 20 labels, size 80,
      decay 0.05.

    Several mother trees are used per dataset (controlled by
    [mothers_per_1000]) so that similarity is clustered rather than
    global. *)

type t = {
  name : string;
  params : Generator.params;
  dz : float;                (** decay probability applied to every tree *)
  mothers_per_1000 : int;    (** template diversity per 1000 trees; 0 =
                                 independent random trees (no templates) *)
  dup_rate : float;          (** probability that an entry is a lightly
                                 edited copy of an earlier entry — real
                                 corpora are near-duplicate heavy, and this
                                 is what makes the join result non-empty *)
  dup_dz : float;            (** per-node edit probability for such copies *)
  dup_exact : float;         (** share of the duplicate copies that are
                                 exact re-submissions (no edits) — the
                                 whole-tree repetition that store dedup
                                 collapses and the filter cascade accepts
                                 at distance 0 without a kernel run;
                                 0 = none *)
  default_cardinality : int; (** the paper's dataset size *)
  fragment_pool : int;       (** size of the shared subtree-fragment pool;
                                 0 = off.  When > 0, every fresh tree is a
                                 shallow glue scaffold over pool fragments,
                                 so identical subtrees recur across the
                                 whole collection *)
  fragment_depth : int;      (** depth of the glue scaffold above the
                                 pooled fragments *)
}

val swissprot : t
val treebank : t
val sentiment : t
val synthetic : t

val redundant : t
(** Subtree-repetition-heavy profile: trees composed from a small shared
    fragment pool ([fragment_pool = 32], [fragment_depth = 2]) plus
    near-duplicate copies, half of which are exact re-submissions
    ([dup_exact = 0.5]).  [bench perf] checks the join on it for
    cross-domain identity. *)

val all : t list

val find : string -> t option
(** Look up by (case-insensitive) name. *)

val instantiate : t -> seed:int -> n:int -> Tsj_tree.Tree.t array
(** Generate [n] trees deterministically from [seed]. *)

val with_params : t -> Generator.params -> t
(** Same profile with overridden generator parameters (sensitivity
    sweeps). *)

val describe : Tsj_tree.Tree.t array -> string
(** Human-readable summary (count, avg size, avg/max depth, labels) in the
    format of the paper's dataset descriptions. *)
