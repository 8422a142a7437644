(** Bounded cross-pair memo cache for the τ-banded TED kernel.

    Keyed by ({!Tsj_tree.Dag} node id, node id, clamp), an entry holds
    the exact treedist write-set of one keyroot-pair computation as
    (row offset, column offset, value) triples relative to the two
    subtrees' leftmost leaves; a hit replays the writes (values and
    stamps), which is bit-identical to running the DP — see the proof
    sketch in [memo.ml].  One cache per domain (via [Domain.DLS]),
    sitting next to {!Arena}; Dag ids are globally unique, so a cache
    safely outlives any single collection or join.  Bounded in both
    entries and total stored words with clock (second-chance)
    eviction. *)

type t

val create : ?slots:int -> ?words:int -> ?results:int -> unit -> t
(** A standalone cache (tests); the kernel uses {!get}.  [slots] bounds
    the entry count (default 4096), [words] the total stored triples
    (default [2^21] ints ≈ 16 MB), [results] the whole-pair result
    entries (default [2^16]; the table is reset wholesale when full).
    @raise Invalid_argument if [slots < 1], [words < 3] or
    [results < 1]. *)

val get : unit -> t
(** The calling domain's cache (created on first use).  Only the thread
    holding the domain's shared {!Arena} may use it. *)

val find : t -> id1:int -> id2:int -> k:int -> int array option
(** The write-set recorded for this (subtree, subtree, clamp), if
    cached.  Counts a global hit or miss and marks the entry recently
    used.  The returned array must not be mutated. *)

val add : t -> id1:int -> id2:int -> k:int -> int array -> unit
(** Insert a write-set, evicting until it fits; oversized write-sets
    (longer than the word bound) and duplicate keys are ignored. *)

val find_result : t -> id1:int -> id2:int -> k:int -> int option
(** The whole-pair clamped distance for (tree, tree, clamp), if cached.
    The kernel's return value is a pure function of the key, so a hit
    skips the entire DP of a duplicate candidate pair.  Counts a global
    hit or miss. *)

val add_result : t -> id1:int -> id2:int -> k:int -> int -> unit
(** Insert a whole-pair result; when the result table is full it is
    reset wholesale first (entries are single ints — losing them only
    costs recomputation). *)

val results : t -> int
(** Whole-pair results currently cached. *)

val used : t -> int
(** Entries currently cached. *)

val words : t -> int
(** Total triple words currently cached. *)

val hits : int Atomic.t
(** Process-wide hit counter (all domains). *)

val misses : int Atomic.t

val evictions : int Atomic.t
