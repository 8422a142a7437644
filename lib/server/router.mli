(** Scatter-gather router of the sharded similarity-search service.

    The router owns the {e global} sequence space: every acked [ADD] is
    bound to a {b gid} (global id) recorded in a ledger mapping
    [gid -> (shard, lseq, size)], where [lseq] is the sequence number
    the owning shard's replica group assigned.  Placement is by
    {!Shard.shard_of_size}, so a query's size window [size ± τ'] maps to
    the bounded shard subset {!Shard.shards_for} — with the default band
    width, at most two shards per query regardless of cluster size.

    {b Writes.}  [add] routes the tree to its band's shard through
    {!Client.Failover} (quorum ack, epoch fencing and primary rotation
    all live below, in the shard's replica group), then appends the
    ledger entry {e before} acking the caller: an acked gid is always
    recoverable.  With a ledger file, entries are checksummed lines
    flushed through {!Tsj_util.Durable} — a router restart replays them
    (dropping a torn tail) and then {e reconciles} against the shards:
    any lseq a shard acked that the ledger missed (the router died
    between shard ack and ledger append) is adopted via [GET] and given
    a fresh gid, so no shard-durable tree is ever orphaned.

    {b Reads.}  [query]/[knn] fan out to the window's shards, one
    thread per shard, each with its own {!Client.Failover} whose socket
    timeout is the {e per-shard deadline}.  A shard that answers late,
    is partitioned or is down does not fail the request: the merge
    degrades it — every ledger-resident tree of the silent shard whose
    size is inside the window contributes the sound
    {!Shard.sandwich} [\[lo, hi\]] bound instead of an exact distance
    (the same shape the server's own deadline budget produces), and the
    answer is marked degraded.  The pure merge lives in {!Merge} so the
    property tests and the wire fuzzer can drive it directly.

    With [hedge_s] set, each shard read is {e hedged}: if no reply has
    arrived after that threshold, a second leg races the first on the
    rotated address list (a slow primary races a replica) and the first
    well-formed [HITS] wins.  Replicas serve the same lseq-ordered
    store, so hedging changes tail latency, never the answer.  A
    caller's remaining deadline (the [@<ms>] token, see {!Protocol}) is
    propagated to the shards minus [margin_ms], so the router can still
    merge and answer inside what the caller waits for.

    {b Migration.}  A shard moves by journal streaming, verbatim: the
    operator starts the target node with [sync_from] pointing at the
    source primary (a [SYNC] from sequence 0 — the full snapshot), and
    {!migrate} pauses the shard's writes (in-flight adds drain under the
    shard write lock), waits until the target's tree count reaches the
    source's, promotes the target (the epoch bump fences the source so
    a partitioned old primary can never accept a write again), and
    swaps the group's address list.  No acked ADD can be lost: acked
    means quorum-journaled at the source, the stream replays the whole
    journal, and the pause guarantees nothing lands between the count
    check and the cutover. *)

type answer = {
  a_degraded : bool;
  a_hits : (int * int) list;
      (** [(gid, distance)], sorted by distance then gid — the same
          order the unsharded index answers in. *)
  a_unverified : (int * int * int) list;
      (** [(gid, lo, hi)] sound bound sandwiches, sorted by gid: trees
          the router could not get an exact distance for (silent shard,
          shard-side deadline) whose lower bound does not already
          exclude them. *)
}

(** The pure scatter-gather merge — no sockets, no threads; the fuzzer
    feeds it garbage and the qcheck suite proves its soundness. *)
module Merge : sig
  type shard_answer =
    | Answer of {
        degraded : bool;
        hits : (int * int) list;  (** shard-local [(lseq, distance)] *)
        unverified : (int * int * int) list;  (** [(lseq, lo, hi)] *)
      }  (** What the shard said (possibly malformed — ids are checked). *)
    | Unreachable
        (** Dead, partitioned, or over its per-shard deadline. *)

  val query :
    query_size:int ->
    tau:int ->
    to_gid:(shard:int -> int -> int option) ->
    resident:(shard:int -> (int * int) list) ->
    (int * shard_answer) list ->
    answer
  (** Merge per-shard answers to a τ-query over a tree of [query_size]
      nodes.  [to_gid] translates a shard-local id ([None] = unknown:
      the hit is dropped and the answer degraded — a malformed reply
      never invents a result); [resident ~shard] lists the ledger's
      [(gid, size)] pairs for that shard (the merge window-filters).
      Policy: an [Unreachable] shard degrades the answer and
      contributes a {!Shard.sandwich} for each in-window resident;
      exact distances win over sandwiches for the same gid; duplicate
      sandwiches widen ([min lo, max hi] — conservative under
      conflicting claims); exact hits outside [0, tau] and malformed
      sandwiches are dropped as invalid (and degrade the answer);
      sandwiches whose [lo] exceeds [tau] are pruned (provably not a
      hit). *)

  val knn :
    k:int ->
    query_size:int ->
    tau:int ->
    to_gid:(shard:int -> int -> int option) ->
    resident:(shard:int -> (int * int) list) ->
    (int * shard_answer) list ->
    answer
  (** Merge per-shard top-k answers ([tau] is the {e index} threshold
      bounding every distance).  The union of per-shard top-k lists
      contains every global top-k member (the global order [(d, gid)]
      restricted to one shard is the shard's own order), so sorting the
      union and keeping [k] reproduces the unsharded answer
      bit-identically when nothing is degraded.  Degradation rules are
      those of {!query}. *)
end

(** Static cluster description the router is created from. *)
type config = {
  map : Shard.map;
  tau : int;  (** index threshold every shard was started with *)
  groups : Protocol.addr list array;
      (** [groups.(s)] = the replica group serving shard [s]; length
          must equal [map.shards], every list non-empty. *)
  timeout_s : float;  (** per-shard deadline (socket send/recv bound) *)
  attempts : int;  (** failover attempts across one shard's group *)
  ledger : string option;  (** checksummed ledger journal path *)
  seed : int;  (** PRNG seed for the failover jitter *)
  hedge_s : float option;
      (** hedged-read latency threshold: a shard read still unanswered
          after this long fires a second leg on the rotated address
          list; [None] disables hedging *)
  margin_ms : int;
      (** response margin subtracted from a caller's remaining deadline
          before it is handed to the shards *)
}

type t

val create : config -> (t, string) result
(** Load the ledger (when configured), rewrite away any torn tail, and
    reconcile against every reachable shard (unreachable shards are
    skipped — their orphans are adopted by the next {!reconcile}). *)

val close : t -> unit
(** Close the ledger channel (idempotent). *)

val n_trees : t -> int
(** Number of gids bound — the next gid to be assigned. *)

val map : t -> Shard.map

val tau : t -> int

val locate : t -> int -> (int * int * int) option
(** [locate t gid] is [Some (shard, lseq, size)], or [None] if unbound. *)

val group_addrs : t -> int -> Protocol.addr list
(** The current address list of a shard's replica group. *)

val set_group_addrs : t -> int -> Protocol.addr list -> unit
(** Repoint a shard's group (a failover the operator resolved by hand);
    {!migrate} is the checked path. *)

val add : ?expect:int -> t -> Tsj_tree.Tree.t -> (int * (int * int) list, string) result
(** Route, quorum-commit, ledger, ack: [Ok (gid, partners)] where the
    partners are the {e same-shard} join partners translated to gids
    (cross-shard partners are a [query] away — the ADD path stays a
    single-shard write).  [Error] after the shard's ack is impossible
    to observe for ledgerless routers; with a ledger, a disk fault on
    the append surfaces as [Error] and the entry is adopted by
    reconciliation instead of being lost.  [expect] is the front-end's
    idempotency hook: the add fails with ["seq gap: ..."] {e before}
    touching any shard unless the next gid equals [expect]. *)

val query : t -> ?deadline_ms:int -> tau:int -> Tsj_tree.Tree.t -> answer
(** Scatter to {!Shard.shards_for}, gather with per-shard deadlines,
    {!Merge.query}.  Total: a cluster with every shard dead answers
    [{a_degraded = true; ...}], never an error.  [deadline_ms] is the
    caller's remaining budget; the shards are handed the remainder
    minus [margin_ms] (monotonically non-increasing, see
    {!Admission.Deadline.after_hop}).
    @raise Invalid_argument if [tau] is negative or above the index
    threshold. *)

val knn : t -> ?deadline_ms:int -> k:int -> Tsj_tree.Tree.t -> answer
(** Scatter a top-k to the index-τ window's shards, {!Merge.knn}.
    [deadline_ms] as in {!query}.
    @raise Invalid_argument if [k < 0]. *)

val hedges : t -> int * int
(** [(fired, wins)]: hedge legs fired past the latency threshold, and
    how many of those supplied the winning answer.  [(0, 0)] unless
    [hedge_s] is set. *)

val scrub_ledger : t -> int * Integrity.corrupt list
(** One ledger scrub pass: re-read the file and verify every line (and
    the seal sidecar) against the canonical entries regenerated from
    the in-memory maps, which are authoritative — each entry passed its
    checksum when applied.  Disk-level rot is repaired by an atomic
    rewrite + reseal; a read fault (EIO) is surfaced as a finding but
    not repaired over.  Returns [(lines_verified, findings)]; counters
    flow into {!stats} ([scrubbed], [crc_failures], [repaired]).
    No-op [(0, \[\])] on a ledgerless router. *)

val reconcile : t -> int
(** Adopt every shard-acked tree the ledger does not know (see module
    doc); returns how many were adopted.  Unreachable shards are
    skipped. *)

val migrate :
  ?deadline_s:float ->
  t ->
  shard:int ->
  target:Protocol.addr list ->
  (unit, string) result
(** Cut shard [shard] over to [target] (module doc).  The target's
    first address must already be streaming from the source
    ([sync_from] at startup).  [deadline_s] (default 30) bounds the
    catch-up wait.  On [Error] nothing was swapped and the source keeps
    serving.  @raise Invalid_argument on a bad shard or empty target. *)

val stats : t -> Protocol.stats_reply
(** Aggregate view: [trees] = gid count (so {!Client.Failover.add}
    pointed at a router front-end learns the right next seq),
    [journal_records] = ledger entries, router-side counters for
    queries/adds/degraded/errors; [epoch = 0], [primary = true]. *)

val handle : t -> ?deadline_ms:int -> Protocol.request -> Protocol.response
(** Answer one request the way a node would, so every existing client
    ([tsj query], {!Client.Failover}) talks to a sharded cluster
    unchanged; {!Server.create_router} serves it on the node's event
    loop.  [QUERY]/[KNN]/[ADD]/[GET]/[STATS] are served; replication
    verbs are refused with [ERR].  [ADD <seq>] honors the idempotency
    contract: [seq] names a gid — the next gid commits normally, an
    already-bound gid is replayed to its owning shard (which verifies
    the tree and answers the original reply), a gap is
    [ERR "seq gap: ..."].  [deadline_ms] is propagated to the shards
    as in {!query}.  Blocks on shard I/O. *)
