(** Durable state of the similarity-search service: a streaming
    {!Tsj_core.Incremental} index plus a crash-safe persistence pair —
    an atomic snapshot and an append-only, checksummed journal (WAL).

    Write path of {!add}: the record

    {v add <seq> <bracket-tree> <fnv1a64-checksum> v}

    is appended and flushed {e before} the tree enters the in-memory
    index ([seq] = the tree id it creates), so an acknowledged [ADD]
    survives a crash at any later point.  {!flush} writes a fresh
    snapshot (atomic tmp + rename, {!save_collection} format) and
    then truncates the journal; a crash between the two steps only
    leaves journal records the snapshot already covers, which
    replay skips by [seq].  {!open_} replays the journal over the
    snapshot: a torn tail (an undecodable final record — a partial
    write from a crash mid-append) is dropped and the journal rewritten
    to its valid prefix, while an undecodable record {e followed by}
    valid ones is real corruption and fails the open.

    The [server.journal] fault-injection point fires once per journal
    write batch, just before the first byte is written (payload = the
    first fresh [seq] of the batch; for a single {!add} that is the
    add's own seq): arming it models a crash that loses exactly the
    unacknowledged batch.  While armed, its hit count equals the number
    of durability forces, which is how the group-commit tests count
    fsyncs per acked ADD.

    {b Replication state.}  The journal's first line is the epoch
    header [epoch <e> <base> <crc>]: [e] is the monotonic failover
    epoch and [base] the first sequence number of that epoch (the
    promotion point).  The header is only written by whole-file atomic
    renames ({!flush}, {!set_epoch}, the torn-tail rewrite), never by
    appends, so it cannot be torn; pre-replication journals have no
    header and read as epoch 0, base 0.  {!apply_record} and
    {!record_for} are the two halves of journal streaming: a primary
    regenerates any record from its in-memory trees (so a replica can
    catch up from an arbitrary seq even after the primary's journal was
    truncated into its snapshot — a snapshot transfer is just streaming
    from 0), and a replica applies pushed records with the same
    durability-before-visibility discipline as {!add}. *)

type t

val open_ :
  ?dir:string ->
  ?dedup:bool ->
  ?heal:(int -> string option) ->
  ?quarantine:bool ->
  tau:int ->
  unit ->
  (t, string) result
(** [open_ ~dir ~tau ()] loads (or initialises) the store rooted at
    [dir] — [dir/snapshot] and [dir/journal], creating the directory if
    needed.

    {b Self-healing open.}  A journal record that fails its checksum
    {e mid-file} (real corruption, not a torn tail) is offered to
    [heal]: called with the missing sequence number, it may return the
    canonical record line — the quorum-refetch path a replica uses —
    and a healed record is spliced in as if it had never rotted.  When
    healing fails, [quarantine] (default [false]) decides: [true] moves
    the unrepairable suffix to [journal.quarantine] (counted in
    {!scrub_counters}, the store opens and serves the surviving prefix
    — degraded, never wrong), [false] refuses the open as before.  A
    snapshot whose integrity seal fails is likewise quarantined (moved
    aside; a replica refills from the quorum by syncing from 0) or
    refused.  An existing snapshot's τ overrides the requested one: a
    restart must reproduce the pre-crash index, and the partitioning
    grain δ = 2τ + 1 is baked into it.  Without [dir] the store is
    ephemeral (no journal, no snapshot).  [dedup] (default
    [false]) enables whole-tree deduplication: a seq-less ADD of a tree
    the store already holds is answered as the original tree's id with
    the original partner list — bit-identical to an idempotent replay —
    and is neither journaled nor indexed, so duplicates cost no disk
    write, no index growth, and nothing on the replication stream.
    Explicit-seq adds keep their retry semantics unchanged.  {!dedups}
    counts the suppressed duplicates. *)

val tau : t -> int

val n_trees : t -> int

val journal_records : t -> int
(** Records currently in the journal (0 right after {!flush}). *)

val fsyncs : t -> int
(** Durability forces (journal flushes) since open — one per {!add},
    one per {!add_batch} with at least one fresh record, one per
    {!apply_record}.  [fsyncs / adds] is the group-commit amortization
    the serving bench reports. *)

val dedups : t -> int
(** Duplicate ADDs suppressed by the dedup layer since open (0 unless
    the store was opened with [~dedup:true]). *)

val tree : t -> int -> Tsj_tree.Tree.t

val epoch : t -> int
(** The replication epoch from the journal header (0 for a store that
    never saw a failover). *)

val epoch_base : t -> int
(** First sequence number of the current epoch (the promotion point). *)

val scrub_counters : t -> int * int * int * int
(** [(records_verified, crc_failures, ranges_repaired, quarantined)]
    since open — the integrity telemetry surfaced through [STATS].
    [crc_failures] counts every checksum/seal finding (at open or by
    {!scrub_step}), [ranges_repaired] counts healed records plus scrub
    repairs plus anti-entropy range repairs ({!note_repaired}), and
    [quarantined] counts records and snapshots moved aside as
    unrepairable. *)

val note_repaired : t -> int -> unit
(** Credit [n] repairs to {!scrub_counters} — the anti-entropy layer
    calls this after transferring a diverging range. *)

val digest : t -> lo:int -> hi:int -> string
(** Merkle digest of the canonical records [\[lo, hi)] — the [DIGEST]
    wire verb's answer.  @raise Invalid_argument if the range exceeds
    the tree count. *)

val merkle_root : t -> string
(** [digest ~lo:0 ~hi:(n_trees t)]. *)

type scrub_report = {
  sc_verified : int;  (** records re-checked this step *)
  sc_findings : Integrity.corrupt list;  (** corruptions detected *)
  sc_repaired : int;  (** repairs applied (snapshot/journal rewritten) *)
}

val scrub_step : ?budget:int -> t -> scrub_report
(** One incremental scrub pass: re-read up to [budget] (default 128)
    journal records from disk and verify their checksums and content
    against the in-memory index (which is authoritative — every record
    passed its CRC when applied), rotating a cursor so successive steps
    cover the whole journal; when the cursor wraps, also verify the
    epoch header and the journal/snapshot seals.  Disk-level
    corruption is repaired by converging disk to memory ({!flush} — a
    fresh sealed snapshot and an empty journal); a read fault (EIO) is
    surfaced as a finding but not "repaired" over.  Counters flow into
    {!scrub_counters}. *)

val add : t -> Tsj_tree.Tree.t -> int * (int * int) list
(** Journal (durably), then index.  Returns the new tree's id and its
    join partners, as {!Tsj_core.Incremental.add}. *)

val add_seq :
  t -> ?seq:int -> Tsj_tree.Tree.t -> (int * (int * int) list, string) result
(** {!add} with the wire protocol's idempotency contract: without [seq]
    it is exactly {!add}; with [seq] equal to the next sequence it adds;
    with [seq] already bound to the {e same} tree it re-answers the
    original acknowledgement (recomputed partners, bit-identical, no
    write); a different tree at [seq] or a gap is an [Error]. *)

val add_batch :
  t ->
  (int option * Tsj_tree.Tree.t) array ->
  (int * (int * int) list, string) result array
(** Group commit: apply a batch of [(seq, tree)] items with the same
    per-item semantics as {!add_seq} applied left to right — the result
    array is positionally identical — but with {e one} journal flush
    for all fresh records of the batch.  Nothing enters the index until
    the whole batch is durable, so a crash during the flush loses an
    all-unacknowledged batch and an acked record never precedes a lost
    one.  A replay item may reference a seq fresh in the same batch.
    A disk fault during the journal phase fails {e every} item of the
    batch with the typed error text (see {!journal_staged}); the store
    itself stays consistent and continues serving. *)

type staged
(** A classified batch between {!stage_batch} and {!index_staged}:
    sequence numbers are assigned but nothing is journaled or visible
    yet. *)

val stage_batch : t -> (int option * Tsj_tree.Tree.t) array -> staged
(** Phase 1 of {!add_batch}: classify the batch (fresh / replay /
    dedup / bad — a seq gap, a seq bound to another tree, or a label
    holding a line break, which no journal line could carry) and
    reserve sequence numbers against the current index.  Reads the index, writes nothing — call it under the same
    lock as {!query}. *)

val journal_staged : t -> staged -> (unit, string) result
(** Phase 2: append the staged fresh records and force durability with
    one flush (the [server.journal] hit point fires first).  Touches
    only the journal, never the index, so a caller may run it {e
    without} holding its read lock — the whole point of the split: the
    flush is the phase with unbounded filesystem latency, and holding
    the read lock across it would stall every concurrent query behind
    one slow disk write.  Callers must serialize writers themselves
    (stage → journal → index sequences must not interleave).

    A disk fault ({!Tsj_util.Durable.Disk_fault} from a short write or
    a failed flush — see the [durable.*] hit points) is surfaced as
    [Error]: nothing of the batch is durable or visible, the journal is
    rewritten to its valid prefix (so the torn bytes of a short write
    cannot corrupt the next append), and the caller must {e not} call
    {!index_staged}.  An armed [server.journal] raise
    ({!Tsj_util.Fault_inject.Injected}) still propagates — that models
    a crash, not a surviving I/O error. *)

val index_staged : t -> staged -> (int * (int * int) list, string) result array
(** Phase 3: make the batch visible (index fresh trees, answer replays)
    and return the positional results, as {!add_batch}.  Call it under
    the read lock, after {!journal_staged} returned — durability before
    visibility. *)

val apply_record : t -> string -> (int, string) result
(** Apply one raw journal record line pushed over a replication stream:
    re-verify the checksum, journal + flush {e before} indexing, skip
    idempotently if already applied.  Returns the store's new tree
    count ([ACKED] payload); [Error] on corruption or a sequence gap. *)

val record_for : t -> int -> string
(** The journal record line for the tree at [seq], regenerated from the
    in-memory index — valid even after the journal was truncated into a
    snapshot.  @raise Invalid_argument if [seq] is out of range. *)

val render_record : seq:int -> Tsj_tree.Tree.t -> string
(** The canonical record line binding [tree] to [seq], for trees not
    held by any local store — the [heal] path of {!open_} regenerates
    a rotted journal record from a tree fetched off a quorum peer. *)

val set_epoch : t -> epoch:int -> base:int -> unit
(** Adopt (or create, on promotion) an epoch: snapshot, then atomically
    rewrite the journal to a header-only file carrying [epoch]/[base].
    A crash between the two steps keeps the old epoch and loses no
    data. *)

val truncate_to : t -> int -> unit
(** Discard every tree with id >= [n] (a demoted primary's unacked
    suffix), rebuild the index from the surviving prefix and persist it
    (snapshot + header-only journal).  No-op if the store holds at most
    [n] trees. *)

val query :
  ?budget:Tsj_join.Budget.t ->
  ?tau:int ->
  t ->
  Tsj_tree.Tree.t ->
  Tsj_core.Incremental.query_result
(** Similarity search at [tau] (default: store τ); see
    {!Tsj_core.Incremental.query}. *)

val nearest : k:int -> t -> Tsj_tree.Tree.t -> (int * int) list

val flush : t -> unit
(** Snapshot atomically, then reset the journal.  No-op for an
    ephemeral store. *)

val close : t -> unit
(** {!flush} and release the journal handle. *)

(** {2 Snapshot format} *)

val save_collection : tau:int -> Tsj_tree.Tree.t array -> string -> unit
(** [save_collection ~tau trees path] writes a snapshot: the header
    lines [# tsj-search-index v1] and [# tau <τ>], then one tree per
    line in bracket notation.  Interned label ids are process-local, so
    no index structure is written; reopening re-derives it.  Publication
    is atomic (tmp + rename). *)

val collection_of_string : string -> (int * Tsj_tree.Tree.t array, string) result
(** Parse the contents of a snapshot back into [(τ, trees)].  Comment
    lines ([#]) may appear in the body and duplicate records are kept.
    A negative or corrupt τ header, an empty record line or a malformed
    tree is rejected with a located diagnostic ([Error "line L: ..."]
    or ["line L, column C: ..."]). *)
