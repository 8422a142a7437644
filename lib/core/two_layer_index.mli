(** The two-layer subgraph index of Section 3.4.

    One index instance holds the subgraphs of all already-processed trees
    of one size [n] (the inverted list [I_n] of Algorithm 1).  Layer 1
    groups subgraphs by postorder position keys; layer 2 subdivides each
    group by the label twig key of {!Subgraph.label_key}.  Probing for
    node [N] of the current tree looks up layer 1 with [N]'s position and
    layer 2 with the four twig keys compatible with [N] (exact child
    labels and [ε] wildcards).

    {b Postorder windows.}  The paper registers subgraph [s_k] (rank [k],
    root postorder [p_k]) under keys [p_k ± (τ - ⌊k/2⌋)].  Our property
    tests found concrete inputs where these windows lose matches that the
    join needs (operations positioned before the subgraph shift its image
    by up to [τ], and the paper's "an earlier subgraph will be selected
    instead" fallback does not always apply) — so that variant,
    {!Paper_rank}, is kept only for ablation.  The default {!Two_sided}
    mode is provably complete: over a script of at most [τ] node edit
    operations, the start-relative shift of an untouched subgraph equals
    the number of insert/delete operations positioned before it and the
    end-relative shift the number positioned after it; the two sum to at
    most [τ], so at least one is at most [⌊τ/2⌋].  Registering every
    subgraph under both coordinates with half-width [⌊τ/2⌋] windows and
    probing both tables therefore never misses an untouched subgraph,
    with selectivity comparable to the paper's scheme. *)

type mode =
  | Two_sided   (** sound two-coordinate windows (default) *)
  | Paper_rank  (** the paper's rank-tightened windows; may miss matches *)
  | Label_only  (** ablation: disable the postorder layer entirely (sound
                    but less selective) *)

type t

val create : ?mode:mode -> tau:int -> unit -> t
(** @raise Invalid_argument if [tau < 0]. *)

val insert : t -> Subgraph.t -> unit

val n_subgraphs : t -> int
(** Number of subgraphs inserted (not counting key replication). *)

val n_groups : t -> int
(** Number of non-empty (position, twig) buckets — an index-size metric. *)

type cursor
(** The per-node twig keys of one probed tree, precomputed.  A join
    probes the same tree against one index per admissible size (times two
    coordinate tables); the cursor hoists the twig-key computation out of
    that loop. *)

val cursor : Tsj_tree.Binary_tree.t -> cursor
(** [cursor target] precomputes the twig key of every node of [target]
    in O(size). *)

val probe_cursor : t -> cursor -> int -> (Subgraph.t -> unit) -> unit
(** [probe_cursor idx cur v f] calls [f] on every indexed subgraph whose
    position group contains node [v] of the cursor's tree (in either
    coordinate) and whose twig key is compatible with that node's twig.
    [f] may be called with subgraphs that do not actually match —
    callers run {!Subgraph.matches} — and may be called twice for a
    subgraph reachable through both coordinates; in {!Two_sided} mode it
    never misses a subgraph left untouched by an edit script of length
    [<= tau].  Probing never mutates the index, so several domains may
    probe one index while no {!insert} runs. *)
