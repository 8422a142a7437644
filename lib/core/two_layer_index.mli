(** The two-layer subgraph index of Section 3.4: one index for the
    subgraphs of every already-processed tree of every size (Algorithm
    1's inverted lists [I_n]).  Layer 1 is the postorder position, layer
    2 the label twig of {!Subgraph.label_key}.

    {b Layout.}  One flat, mutable structure serves insert and probe.
    Two key tables, [by_start] (position = the subgraph root's general
    postorder number) and [by_end] (tree size − 1 − that number), map
    one int key to the head of a chain of postings.  The key packs (size
    band, position, root label) 21 bits apart, where the band is the
    tree size divided by τ + 1, and adds the twig (the left and right
    slot of {!Subgraph.label_key}, each times an odd constant).  A
    posting is an int triple (position, subgraph slot, next posting) in
    a pool of 32-posting chunks; a slot holds its subgraph's exact size,
    root label and twig slots (a chunk of int quadruples) and the
    {!Subgraph.t} (a chunk of pointers).  Chains are newest first.  A
    probe compares the exact fields, so the key may collide without
    adding or dropping a candidate, and fields of any width (label ids
    past 2{^40}) need no checked path.  The band keeps near-identical
    trees of many sizes off one long chain, and the twig keeps a chain
    to the subgraphs of one twig: with the twig checked on the chain
    instead, 90–94% of the postings a probe walked failed it.

    {b Key tables.}  Extendible hashing over the key's mixed hash
    (SplitMix64's finalizer; an identity hash would spread keys by the
    root label alone): a directory of small open-addressed buckets of 32
    (key, head) pairs, each split in two at 24 keys.  It grows a bucket
    at a time, with no capacity step and no copy of the table, and every
    chunk and bucket is small enough for the minor heap and the major
    heap's size classes.  A presence filter (one bit per hash value
    modulo its length, 8 to 16 bits per key) answers most missing keys
    without touching a bucket.

    {b Memory per key and posting.}  A bucket holds 12 to 24 keys in 67
    words.  On 2,000 swissprot trees at τ = 2 (42,742 keys; 41,252 when
    the key was (size, position, root label)) the key tables, directory
    and filter included, hold 4.2 words per key; the [Hashtbl]
    they replace held 4.5 to 5 (a 4-word cell per key and ½ to 1 bucket
    word).  A posting costs 3 words (it was a 7-word block), a subgraph
    5 words of slot beside its record and code.  There the streaming
    index ({!Incremental}) holds 19.0 words per stored node, against
    27.0 with boxed postings and subgraphs that kept their tree.

    {b Lookups.}  A probe over sizes [[lo, hi]] walks the bands from
    [lo / (τ + 1)] to [hi / (τ + 1)] and does one lookup per (band,
    node, coordinate, twig variant) — two coordinates in {!Two_sided},
    one otherwise — plus one per band to skip bands with no subgraph.
    The twig variants of node [v] are (ll, lr), (ll, ε), (ε, lr) and
    (ε, ε), where ll and lr are the labels of [v]'s left and right
    child; a side where [v] has no child gives only ε, and variants
    whose keys are equal share one walk of their chain.  The walk keeps
    the postings whose exact position and root label match, whose size
    lies in [[lo, hi]] and in the band, and whose twig slots are each ε
    or [v]'s child label.  A lookup allocates nothing.  On perfbench's
    first [join] collection (800 trees, τ = 3) the join's probes walk
    12,379 postings for 11,901 calls of [f] (118,233 postings with the
    twig checked on the chain and the exact size in the key), in 494K
    lookups (507K).

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
(** Number of distinct keys over both tables — an index-size metric. *)

val key : band:int -> pos:int -> label:int -> left:int -> right:int -> int
(** The chain key of a (size band, position, root label, twig): the
    packed fields plus each twig slot times its odd multiplier, modulo
    2{^63}.  Exposed so that tests can construct keys that collide. *)

type cursor
(** The per-node twig labels of one probed tree, precomputed.  A probe
    runs the same tree over every size band of its window and both
    coordinate tables; the cursor hoists the twig computation out of
    that loop. *)

val cursor : Tsj_tree.Binary_tree.t -> cursor
(** [cursor target] precomputes the twig of every node of [target] in
    O(size). *)

val probe : t -> cursor -> lo:int -> hi:int -> (Subgraph.t -> int -> unit) -> unit
(** [probe idx cur ~lo ~hi f] calls [f s v] for every node [v] of the
    cursor's tree and every indexed subgraph [s] of a tree whose size is
    in [[lo, hi]], whose position window contains [v] (in either
    coordinate) and whose twig is compatible with [v]'s.  Size bands
    ascend, then nodes, coordinates, twig variants, and each chain
    newest first.  [f] may be called with subgraphs that do not actually
    match — callers run {!Subgraph.matches} — and twice for a subgraph
    reachable through both coordinates; in {!Two_sided} mode it never
    misses a subgraph left untouched by an edit script of length
    [<= tau].  Probing never mutates the index, so several domains may
    probe one index while no {!insert} runs. *)
