(** The fault-tolerant similarity-search service.

    A server owns a {!Store.t} (streaming PartSJ index + crash-safe
    journal) and serves the {!Protocol} over a Unix-domain or TCP
    socket with an {b event-driven core}: one thread runs a single
    [select] poll over the listener, a self-pipe and every connection
    (all nonblocking, with per-connection in/out buffers and
    incremental frame parsing) and answers every complete request
    itself — [QUERY]/[KNN] included, computed inline under a budget —
    except [ADD]s, which go to a committer thread that coalesces
    concurrent [ADD]s into {b group commits} (one journal append + one
    flush + one quorum round per batch of up to [max_batch], see
    {!Store.add_batch}).  A read holds the loop for its compute, which
    [deadline_s] or the client's deadline (less a response margin)
    bounds: past it the answer degrades instead of stalling the other
    connections.  Each connection gets a turn per tick that ends with
    the first read finishing more than 1 ms into it, so a request
    waits behind at most one read (plus 1 ms) of each connection with
    reads ready, however many a client pipelines.

    The connection layer — listener, framing, admission, hygiene, the
    wake pipe and the drain — hands each parsed request to a handler:
    the node's store ({!create}) or a sharded cluster's
    {!Router} ({!create_router}).

    Each connection carries newline-delimited lines until one
    [HELLO BIN <v>] handshake switches it to length-prefixed frames
    around the same lines (see {!Protocol.Binary}); both share the
    port.  Framed connections may pipeline: complete frames are
    dispatched as they arrive (reads within the connection's turn) and
    replies are matched by request id, in whatever order they finish.
    The newline protocol keeps its strict one-reply-per-request
    ordering.

    Robustness properties:

    - {b deadlines}: every admitted request gets a {!Tsj_join.Budget}
      carrying [deadline_s]; an over-deadline query returns a partial
      answer with bound sandwiches and the [degraded] flag rather than
      blocking the server;
    - {b admission control}: at most [max_inflight] work-bearing
      requests run at once; beyond the watermark, the newcomer is shed
      with an explicit [BUSY] carrying a retry-after hint —
      deterministic, never a silent drop.  Reads run one at a time, so
      a read meets the watermark only when queued [ADD]s fill it; a
      connection's reads past the one being served wait in its socket
      (not read until its buffered requests are served);
    - {b fair admission}: with [rate] set, each connection gets its own
      token bucket ([rate] tokens/s, capacity [burst]) in front of the
      shared watermark; a greedy connection exhausts only its own bucket
      and its excess is shed with [BUSY <retry-after-ms>] while
      conforming connections are untouched.  [STATS]/[HEALTH] bypass the
      bucket so monitoring keeps working under overload;
    - {b deadline propagation}: work requests may carry a relative
      remaining budget (see {!Protocol}); expired work is answered
      [ERR deadline expired] (counted as [expired=] in [STATS]) instead
      of being computed, queued [ADD]s past deadline are dropped {e
      before} the journal write, and a completed answer past its
      deadline is replaced by the same error — an expired answer is
      never delivered;
    - {b connection hygiene}: connections idle longer than
      [idle_timeout_s], or whose unread output exceeds [max_out_bytes],
      are closed and counted as [reaped=]; with [max_conns] set, excess
      accepts are closed immediately.  [EMFILE]/[ENFILE] on accept
      pauses accepting briefly (counted as [accept_pauses=]) instead of
      spinning the event loop hot;
    - {b isolation}: a malformed request, an injected handler fault or a
      client disconnect quarantines that one connection (recorded with a
      {!Tsj_join.Types.quarantined} reason) and leaves every other
      connection untouched;
    - {b graceful drain}: [DRAIN]/SIGTERM stops accepting, lets inflight
      requests finish within [drain_budget_s] (then cancels the budget
      of the read in flight, which answers degraded), flushes the store
      (snapshot + empty journal) and exits cleanly.  A [DRAIN] request
      is read only once the loop is free, so only SIGTERM or {!drain}
      can cancel a read that is running;
    - {b crash safety}: [ADD] is journaled before it is indexed
      (see {!Store}), so killing the server at any point and restarting
      yields an index equal to the acknowledged prefix; a crash during
      a group commit loses only unacknowledged adds.

    - {b replication}: with [quorum] > 1 an [ADD] is acknowledged only
      after that many nodes (self included) flushed the record;
      replicas ([primary = false]) stream the journal from [sync_from],
      refuse writes with [FENCED], and take over via [PROMOTE] behind
      an epoch persisted in the journal header — see {!Replica},
      {!Cluster} and the "Replication" section of DESIGN.md.
      Reads carrying a bounded-staleness bound ([~<n>])
      are answered locally when the replica's known lag is within the
      bound and redirected to the last known primary otherwise — see
      the contract in {!Protocol}.

    Fault-injection hit points (see {!Tsj_util.Fault_inject}):
    [server.accept] (payload = connection id), [server.request]
    (payload = request ordinal on the connection — one per line,
    frame, or oversize rejection), [server.journal] (payload = first
    fresh sequence number of a journal write batch, fired in
    {!Store.add_batch}; its hit count while armed counts durability
    forces), [server.batch] (payload = group-commit ordinal, fired by
    the committer just before it collects a batch; an armed action can
    stall the committer so pipelined [ADD]s pile into one commit, and
    an [Injected] raise is swallowed), [server.emfile] (payload =
    connection id; fired just before [accept] — arm it with
    {!Tsj_util.Fault_inject.arm_action} raising
    [Unix.Unix_error (Unix.EMFILE, _, _)] to exercise the
    accept-pause path), plus the replication points
    [replica.stream]/[replica.ack] (in {!Replica.feed}) and
    [cluster.partition] (in {!Cluster.replicate}). *)

type config = {
  addr : Protocol.addr;
  tau : int;
  dir : string option;  (** journal/snapshot directory; [None] = ephemeral *)
  max_inflight : int;  (** admission watermark; beyond it, [BUSY] *)
  deadline_s : float option;  (** per-request deadline *)
  drain_budget_s : float;  (** how long drain waits for inflight work *)
  max_line_bytes : int;
      (** request lines (and binary frame bodies) longer than this are
          rejected *)
  handle_sigterm : bool;  (** install a SIGTERM -> drain handler *)
  quorum : int;
      (** durable copies (incl. the own journal) required before an
          [ADD] is acknowledged; 1 = single-node semantics *)
  sync_from : Protocol.addr list;
      (** peers to stream the journal from while not primary (the
          [--replica-of] list); tried in order, with backoff *)
  primary : bool;  (** start holding the write mandate *)
  peer_timeout_s : float;
      (** receive timeout on replica streams: a hung replica is dropped
          (and re-syncs) instead of hanging the write path *)
  max_batch : int;
      (** largest number of concurrent [ADD]s coalesced into one group
          commit (one journal flush + one quorum round) *)
  dedup : bool;
      (** answer a duplicate seq-less [ADD] as the original tree's id,
          without journaling or indexing it (see {!Store.open_});
          [STATS] reports the suppressed count as [dedup=] *)
  scrub_interval_s : float option;
      (** background integrity scrub period; [None] (the default)
          disables the scrubber.  Each tick re-verifies up to
          [scrub_budget] journal records against the in-memory index
          under the write lock (see {!Store.scrub_step}) and repairs
          disk-level rot by converging disk to memory *)
  scrub_budget : int;  (** records re-verified per scrub tick *)
  quarantine : bool;
      (** open degraded instead of refusing when corruption cannot be
          healed: unrepairable journal records / a bad snapshot are
          moved aside ([.quarantine]), counted in [STATS], and the
          surviving prefix is served (see {!Store.open_}) *)
  rate : float option;
      (** per-connection admission rate (work requests per second);
          [None] (the default) disables the token buckets *)
  burst : int;
      (** per-connection token-bucket capacity (only meaningful with
          [rate]); a fresh connection may burst this many work requests
          before pacing kicks in *)
  idle_timeout_s : float option;
      (** close (and count as [reaped=]) connections with no traffic,
          no inflight work and an empty output buffer for this long;
          [None] (the default) never reaps idle connections *)
  max_out_bytes : int;
      (** hygiene cap on a connection's unread output buffer: a client
          that stops reading while replies accumulate past this is
          closed (and counted as [reaped=]) instead of growing the
          buffer without bound *)
  max_conns : int option;
      (** hard cap on concurrent connections: excess accepts are closed
          immediately (counted as [reaped=]); [None] = unlimited *)
}

val default_config : Protocol.addr -> tau:int -> config
(** Ephemeral store, 1 domain, watermark 64, no deadline, 5 s drain
    budget, 1 MiB line cap, no signal handler; quorum 1, no sync peers,
    primary, 5 s peer timeout, group commits of up to 64, dedup off;
    no admission rate limit (burst 32 when one is set), no idle
    timeout, 8 MiB output cap, unlimited connections. *)

type t

val create : config -> (t, string) result
(** Open the store (replaying any journal) and bind the listener.  The
    server does not accept connections until {!start}. *)

val create_router : config -> Router.t -> (t, string) result
(** Bind the listener and serve the router through the same event
    loop: framing, the line cap, token buckets, the watermark,
    hygiene, [STATS]/[HEALTH]/[DRAIN] and the drain are the node's.
    The node-only fields ([tau], [dir], [deadline_s], [quorum],
    replication, scrub, [dedup]) are ignored.  Shard I/O blocks, so
    each admitted [QUERY]/[KNN]/[ADD]/[GET] runs {!Router.handle} on a
    thread of its own and replies as the node's committer does: at
    most [max_inflight] such threads run at once, never one per
    connection.  A read carrying [~<n>] is refused: shard reads may
    land on any replica, so the router cannot honour the bound.
    [STATS] is {!Router.stats} with the front's overload counters;
    {!store} and {!replica} raise [Invalid_argument].  The caller
    closes the router after {!wait}. *)

val start : t -> unit
(** Spawn the event loop (and the SIGTERM handler if configured); a
    node also spawns the committer, and a non-primary with a
    [sync_from] list the follower thread that keeps a replication
    stream open. *)

val abort : t -> unit
(** Test hook modelling [kill -9] in-process: sever the listener, every
    connection and any replication stream, and stop every loop {e
    without} flushing or snapshotting — recovery must come from the
    journal alone.  Queued but uncommitted [ADD]s are discarded without
    touching the journal.  Use {!drain} for a graceful stop. *)

val drain : t -> unit
(** Trigger a graceful drain (idempotent; also reachable via the
    [DRAIN] request and SIGTERM).  Blocks until the store is flushed. *)

val drained : t -> bool
(** Whether a drain has completed (store flushed, listener closed). *)

val wait : t -> unit
(** Join the event loop and every worker thread.  Returns once the
    server has fully stopped (i.e. after a drain or abort); after a
    graceful drain it additionally waits for the store flush. *)

val stats : t -> Protocol.stats_reply

val store : t -> Store.t

val replica : t -> Replica.t
(** The node's replication state machine (primary flag, epoch). *)

val quarantined : t -> Tsj_join.Types.quarantined list
(** Connections quarantined so far (oldest first); [q_i] is the
    connection id. *)
