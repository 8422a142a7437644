(** The two-layer subgraph index of Section 3.4: one index for the
    subgraphs of every already-processed tree of every size (Algorithm
    1's inverted lists [I_n]).  Layer 1 is the postorder position, layer
    2 the label twig of {!Subgraph.label_key}.

    {b Layout.}  One flat, mutable structure serves insert and probe.
    One key table maps an int key to the head of a chain of postings.
    The key packs (size band, position bucket, root label) 21 bits
    apart, where the band is the tree size and the bucket the position
    in the mode's coordinate, each divided by 2τ + 1, and adds the twig
    (the left and right slot of {!Subgraph.label_key}, each times an odd
    constant).  A posting is an int triple (window, subgraph slot, next
    posting) in a pool of 32-posting chunks; the window is the
    subgraph's position window clipped to the posting's bucket, packed
    as (first position, length).  A slot holds its subgraph's exact
    size, root label and twig slots (a chunk of int quadruples) and the
    {!Subgraph.t} (a chunk of pointers).  Chains are newest first.  A
    probe compares the exact fields, so the key may collide without
    adding or dropping a candidate, and fields of any width (label ids
    past 2{^40}) need no checked path.  The band keeps near-identical
    trees of many sizes off one long chain, and the twig keeps a chain
    to the subgraphs of one twig: with the twig checked on the chain
    instead, 90–94% of the postings a probe walked failed it.

    {b Key table.}  Extendible hashing over the key's mixed hash
    (SplitMix64's finalizer; an identity hash would spread keys by the
    root label alone): a directory of small open-addressed buckets of 32
    (key, head) pairs, each split in two at 24 keys.  It grows a bucket
    at a time, with no capacity step and no copy of the table, and every
    chunk and bucket is small enough for the minor heap and the major
    heap's size classes.  A presence filter (one bit per hash value
    modulo its length, 32 to 64 bits per key) answers most missing keys
    without touching a bucket.

    {b Memory per key and posting.}  A bucket holds 12 to 24 keys in 67
    words.  On 2,000 swissprot trees at τ = 2 (41,433 keys in the
    two-table layout this one replaced) the key tables, directory and
    filter included, held 4.8 words per key; the [Hashtbl] they replaced
    held 4.5 to 5 (a 4-word cell per key and ½ to 1 bucket word).  A
    posting costs 3 words, a subgraph 5 words of slot beside its record
    and code, and a subgraph has one or two postings (six at τ = 2–3 in
    the two-table layout).  The streaming index ({!Incremental}) holds
    17.1 words per stored node on the memory guard's 400 swissprot
    trees (19.3 in the two-table layout).

    {b Lookups.}  A probe over sizes [[lo, hi]] walks the bands from
    [lo / (2τ + 1)] to [hi / (2τ + 1)] — at most two for a window of
    2τ + 1 sizes — and does one lookup per (band, node, twig variant),
    in the bucket of the node's coordinate, plus one per band to skip
    bands with no subgraph.  The twig variants of node [v] are (ll, lr),
    (ll, ε), (ε, lr) and (ε, ε), where ll and lr are the labels of [v]'s
    left and right child; a side where [v] has no child gives only ε,
    and variants whose keys are equal share one walk of their chain.  A
    variant's shape is which of its slots are set; the index keeps one
    bit per shape it holds, and a probe skips the variants of the other
    shapes, which hold no posting the walk would keep.  Shape (ε, ε)
    takes a one-node component, so a partition with γ = 1 (e.g. of a
    tree of δ to 2δ − 1 nodes): no subgraph of 2,000 trees of any
    generated profile at τ = 1..3 has it, so that variant, 45% of the
    lookups, goes.  The walk keeps the postings whose window holds the
    node's coordinate, whose root label matches, whose size lies in
    [[lo, hi]] and in the band, and whose twig slots are each ε or [v]'s
    child label.  A lookup allocates nothing.  On perfbench's first
    [join] collection (seed 801, 800 trees, τ = 3) the join's probes do
    110,718 lookups, walk 9,015 postings and call [f] 7,317 times, where
    two coordinates at exact positions did 221,436, walked 12,664 and
    called it 11,901 times, for the same 988 candidates; the
    [partsj/index-probe] micro's probe of a 70-node tree into perfbench
    [query]'s swissprot preload (2,000 trees, τ = 2) does 154 lookups
    (308).

    {b Postorder windows.}  The paper registers subgraph [s_k] (rank [k],
    root postorder [p_k]) under keys [p_k ± (τ - ⌊k/2⌋)].  Our property
    tests found concrete inputs where these windows lose matches that the
    join needs (operations positioned before the subgraph shift its image
    by up to [τ], and the paper's "an earlier subgraph will be selected
    instead" fallback does not always apply) — so that variant,
    {!Paper_rank}, is kept only for ablation.  The default
    {!Start_window} mode is provably complete: over a script of at most
    [τ] node edit operations, the start-relative position (general
    postorder number) of an untouched subgraph's root shifts by the
    number of insert/delete operations positioned before it, which is at
    most [τ].  So its window [[c − τ, c + τ]] around its own position [c]
    holds the position [p] of its image.  The window meets at most two
    buckets of 2τ + 1 positions, and the subgraph is registered in each
    of them with the window clipped to that bucket; the probe of node
    [p] looks in bucket [p / (2τ + 1)], where the window's clip to that
    bucket holds [p].  So the probe never misses an untouched subgraph,
    and reaches it through one posting. *)

type mode =
  | Start_window  (** sound start-relative windows of ±τ (default) *)
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
(** Number of distinct keys — an index-size metric. *)

val key : band:int -> bucket:int -> label:int -> left:int -> right:int -> int
(** The chain key of a (size band, position bucket, root label, twig): the
    packed fields plus each twig slot times its odd multiplier, modulo
    2{^63}.  Exposed so that tests can construct keys that collide. *)

type cursor
(** The per-node twig labels of one probed tree, precomputed.  A probe
    runs the same tree over every size band of its window; the cursor
    hoists the twig computation out of that loop. *)

val cursor : Tsj_tree.Binary_tree.t -> cursor
(** [cursor target] precomputes the twig of every node of [target] in
    O(size). *)

val probe : t -> cursor -> lo:int -> hi:int -> (Subgraph.t -> int -> unit) -> unit
(** [probe idx cur ~lo ~hi f] calls [f s v] for every node [v] of the
    cursor's tree and every indexed subgraph [s] of a tree whose size is
    in [[lo, hi]], whose position window contains [v]'s coordinate and
    whose twig is compatible with [v]'s.  Size bands ascend, then nodes,
    twig variants, and each chain newest first; [f] sees a subgraph at
    most once per node.  [f] may be called with subgraphs that do not
    actually match — callers run {!Subgraph.matches}; in
    {!Start_window} mode it never misses a subgraph left untouched by an
    edit script of length [<= tau].  Probing never mutates the index, so
    several domains may probe one index while no {!insert} runs. *)
