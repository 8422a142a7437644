(** Fault-injection scenario drivers for the resilient PartSJ execution.

    Each driver runs a complete scenario against {!Tsj_core.Partsj} using
    the {!Tsj_util.Fault_inject} hit points and returns the raw outputs
    for the caller (tests, {!Experiments.resilience}) to assert on.  All
    drivers disarm their injections on every exit path. *)

type kill_report = {
  killed : bool;
      (** the injected crash actually fired (false when the collection
          has too few blocks to reach the kill point) *)
  uninterrupted : Tsj_join.Types.output;  (** reference run, no checkpoint *)
  resumed : Tsj_join.Types.output;        (** run resumed from the crash journal *)
}

val run_kill_and_resume :
  ?domains:int ->
  ?kill_at_block:int ->
  ?journal:string ->
  trees:Tsj_tree.Tree.t array ->
  tau:int ->
  unit ->
  kill_report
(** Runs the join uninterrupted; reruns it with a block-granular
    checkpoint journal and an injected crash at the top of block
    [kill_at_block] (default 1); resumes from the journal.  A correct
    implementation yields
    [Types.equal_deterministic uninterrupted resumed = true].
    [journal] defaults to a fresh temp path, removed afterwards. *)

type budget_report = {
  truth : Tsj_join.Types.output;     (** unbudgeted reference run *)
  budgeted : Tsj_join.Types.output;  (** run under the per-pair budget *)
  false_positives : Tsj_join.Types.pair list;
      (** budgeted pairs absent from the truth — must be [[]] *)
  unaccounted : Tsj_join.Types.pair list;
      (** truth pairs neither reported nor covered by a quarantine
          record — must be [[]] (completeness up to the quarantined
          set) *)
}

val run_budgeted :
  ?domains:int ->
  pair_cost_limit:int ->
  trees:Tsj_tree.Tree.t array ->
  tau:int ->
  unit ->
  budget_report
(** Soundness scenario for graceful degradation under a per-pair
    verification budget. *)

val truncate_file : string -> keep_bytes:int -> unit
(** Truncates a file in place — corrupts a checkpoint journal for the
    torn-journal scenarios. *)

val fresh_journal : unit -> string
(** A fresh non-existent temp path for a checkpoint journal. *)

type server_kill_report = {
  server_killed : bool;
      (** the injected crash fired (false when there are fewer adds than
          the kill point) *)
  acked : int;  (** adds acknowledged before the crash *)
  expected : int;
      (** adds that must survive the restart: [acked], minus one when the
          journal tail was torn (that record was a partial write) *)
  answers_match : bool;
      (** the restarted store holds exactly [expected] trees and answers
          every probe query bit-identically to a store fed that prefix *)
}

val run_server_kill_and_restart :
  ?kill_at_add:int ->
  ?tear_tail:bool ->
  trees:Tsj_tree.Tree.t array ->
  queries:Tsj_tree.Tree.t array ->
  tau:int ->
  unit ->
  server_kill_report
(** Crash-safety scenario for the service's journaled ADD path: feed
    [trees] into a {!Tsj_server.Store}, crash it via the
    [server.journal] hit point at add [kill_at_add] (default 1,
    abandoning the store without a close), optionally tear the last
    journal record ([tear_tail]), restart from disk and compare query
    answers against a reference store fed the surviving prefix.  A
    correct implementation yields [answers_match = true].  The temp
    store directory is removed afterwards. *)

type failover_report = {
  chaos_points : int;
      (** kill/partition events injected (one per round) *)
  acked_adds : int;
      (** ADDs the client saw acknowledged; the ones it gave up on were
          never acknowledged, so they may (but need not) be lost *)
  failovers : int;  (** promotions performed by the driver-as-operator *)
  acked_preserved : bool;
      (** every acknowledged (seq, tree) is present, bit-identical, at
          [seq] in the healed cluster — the "zero acked ADDs lost"
          invariant *)
  single_writer : bool;
      (** no epoch had acknowledged writes accepted by two different
          nodes — the fencing invariant *)
  converged : bool;
      (** after the final heal, every node holds the same trees at the
          same epoch *)
  cluster_answers_match : bool;
      (** every node answers the probe queries bit-identically to a
          single-node store that never failed, fed the same sequence *)
}

val run_failover_storm :
  ?seed:int ->
  ?rounds:int ->
  ?quorum:int ->
  trees:Tsj_tree.Tree.t array ->
  queries:Tsj_tree.Tree.t array ->
  tau:int ->
  unit ->
  failover_report
(** Chaos scenario for the replicated service: a three-node in-process
    cluster (real journaled stores in temp directories, the real
    {!Tsj_server.Replica}/{!Tsj_server.Cluster} machinery, an in-memory
    transport that can drop either the record leg or the ack leg of the
    stream).  Each of [rounds] (default 40) rounds heals the cluster,
    injects one randomized chaos event — partition a node, kill a node
    outright, kill the primary mid-quorum via [cluster.partition], or
    kill a follower before/after a durable apply via
    [replica.stream]/[replica.ack] — then drives safe-retry client
    ADDs, failing over (promote the reachable node with the highest
    (epoch, n_trees)) whenever the primary is gone.  A correct
    implementation yields [acked_preserved && single_writer &&
    converged && cluster_answers_match].  All temp stores are removed
    afterwards. *)

type sharded_report = {
  sh_chaos_points : int;  (** chaos events injected (one per round) *)
  sh_acked_adds : int;
      (** router-acked ADDs across all shards; the ones the router gave
          up on (shard unreachable, or no quorum) were never
          acknowledged, so they may be lost *)
  sh_failovers : int;  (** per-shard promotions, summed *)
  sh_migrations : int;
      (** completed journal-streaming shard migrations (sabotaged ones
          abort and do not count) *)
  sh_acked_preserved : bool;
      (** every router-acked (shard, lseq, tree) is present,
          bit-identical, on the healed shard — zero acked ADDs lost *)
  sh_single_writer : bool;
      (** the fencing invariant holds in every shard's replica group:
          one writer per epoch per shard *)
  sh_converged : bool;  (** every shard's replicas converged after heal *)
  sh_degraded_sound : bool;
      (** every mid-storm merged answer was sound against the reference:
          each true hit surfaced exactly or inside its [lo, hi]
          sandwich, and no exact hit was invented *)
  sh_answers_match : bool;
      (** after the final heal, merged QUERY and KNN answers are
          bit-identical to an unsharded reference store fed the acked
          trees in gid order *)
}

val run_sharded_storm :
  ?seed:int ->
  ?rounds:int ->
  ?shards:int ->
  ?replicas:int ->
  ?quorum:int ->
  trees:Tsj_tree.Tree.t array ->
  queries:Tsj_tree.Tree.t array ->
  tau:int ->
  unit ->
  sharded_report
(** Chaos scenario for the {e sharded} service: one in-process replica
    group per shard (default 3 shards × 3 replicas, quorum 2), band-key
    routing by {!Tsj_server.Shard}, and the driver playing the router —
    sticky-seq writes to the owning shard, a gid ledger appended only
    on delivered acks, orphan adoption in lseq order, and reads merged
    by the real {!Tsj_server.Router.Merge}.  Each of [rounds] (default
    40) rounds heals everything and injects one chaos event: the six
    per-group kinds of {!run_failover_storm} (including mid-quorum
    kills), a journal-streaming migration — sometimes sabotaged by a
    one-shot kill of the stream's source or target mid-migration, which
    must abort the cutover cleanly — or a router-side event (the router
    loses one shard, or crashes outright and rebuilds its ledger from
    the reachable shards).  Every round also probes one query and
    checks the merged, possibly degraded, answer is sound against an
    unsharded reference.  A correct implementation yields
    [sh_acked_preserved && sh_single_writer && sh_converged &&
    sh_degraded_sound && sh_answers_match]. *)

val flip_bit : string -> bit:int -> unit
(** Flip one bit of a file in place (read-modify-write of a single
    byte; any channel appending to the file is undisturbed) — injected
    media rot for the integrity scenarios. *)

type scrub_storm_report = {
  sb_flips : int;  (** bits flipped across live files and restarts *)
  sb_all_detected : bool;
      (** every flip and every injected EIO on the scrubber's read path
          was caught (scrub findings, healed/quarantined records,
          read-fault findings) *)
  sb_scrub_repairs : int;  (** repairs applied by live scrub cycles *)
  sb_healed : int;  (** records refetched from the primary at reopen *)
  sb_quarantined : int;  (** records/snapshots moved aside as unrepairable *)
  sb_transferred : int;  (** records re-sent by Merkle anti-entropy *)
  sb_full_resync_cost : int;
      (** summed store sizes at each anti-entropy call — what full
          re-syncs would have transferred *)
  sb_transfer_frugal : bool;
      (** every anti-entropy call transferred exactly the replica's true
          differing suffix — so strictly less than a full re-sync
          whenever the replica still held a valid prefix *)
  sb_wrong_answers : int;
      (** probe answers that differed from the never-corrupted reference
          (degraded quarantine answers checked for invented hits) —
          must be 0: rot never surfaces in answers *)
  sb_converged : bool;
      (** final state: both stores scrub clean, hold the reference's
          trees bit-identically, and every post-repair cycle was clean *)
}

val run_scrub_storm :
  ?seed:int ->
  ?rounds:int ->
  trees:Tsj_tree.Tree.t array ->
  queries:Tsj_tree.Tree.t array ->
  tau:int ->
  unit ->
  scrub_storm_report
(** The bit-rot storm: a primary and a mirroring replica (journaled
    stores in temp directories) under steady ADD traffic, one integrity
    fault per round (default 30) — a random bit flipped in a live
    journal / snapshot / seal file, repaired by a full
    {!Tsj_server.Store.scrub_step} cycle; a byte rotted mid-journal
    before a restart, healed by the self-healing open refetching the
    record from the primary, or quarantined and refilled by
    {!Tsj_server.Scrub.anti_entropy}; a grafted divergent record,
    located by Merkle digests and repaired by transferring exactly the
    differing suffix; or an injected EIO on the scrubber's own read.
    A correct implementation yields [sb_all_detected &&
    sb_transfer_frugal && sb_wrong_answers = 0 && sb_converged]. *)

type overload_report = {
  ov_goodput_ok : bool;
      (** the conforming client's goodput (answers/s) inside the storm is
          at least half of its goodput on the idle server *)
  ov_conforming_sent : int;  (** conforming requests sent during the storm *)
  ov_conforming_shed : int;  (** conforming requests answered BUSY — should
                                 stay 0: the client never exceeds its bucket *)
  ov_no_starvation : bool;
      (** at least half the conforming requests were answered *)
  ov_greedy_sent : int;  (** requests fired by the greedy clients *)
  ov_greedy_shed : int;  (** greedy requests refused BUSY by their buckets *)
  ov_late_answers : int;
      (** HITS delivered well past the request's announced deadline
          (beyond a scheduling-slack allowance) — must be 0 *)
  ov_wrong_answers : int;
      (** exact (non-degraded) answers differing from the single-client
          reference — must be 0 *)
  ov_hedge_mismatches : int;
      (** hedge-race rounds where two exact replies to the same query
          did not render bit-identically — must be 0 *)
  ov_reaped : int;
      (** server counter: connections reaped by hygiene — at least 1,
          the storm's deliberately idle connection *)
  ov_expired_add_rejected : bool;
      (** an ADD sent with [@0] budget came back [ERR deadline expired] *)
  ov_trees_stable : bool;
      (** the store still holds exactly the preloaded trees: the expired
          ADD never reached the journal *)
}

val run_overload_storm :
  ?seed:int ->
  ?duration_s:float ->
  ?greedy:int ->
  ?rate:float ->
  trees:Tsj_tree.Tree.t array ->
  queries:Tsj_tree.Tree.t array ->
  tau:int ->
  unit ->
  overload_report
(** The overload storm: one server with fair admission (per-connection
    token buckets at [rate] answers/s, burst 16), a 32-job watermark
    with least-remaining-deadline shedding, a 300 ms idle reaper and a
    0.5 s compute budget, under roughly 10x its conforming load.  One
    conforming client paced at a quarter of the bucket rate measures
    goodput before ([duration_s]/2) and during ([duration_s]) the
    storm; [greedy] pipelined binary clients (default 3) fire windows
    of 50 ms-deadline queries flat out; one idle connection waits to be
    reaped; a hedge-race pair issues the same query on two connections
    at once and compares renders.  A correct implementation yields
    [ov_goodput_ok && ov_no_starvation && ov_late_answers = 0 &&
    ov_wrong_answers = 0 && ov_hedge_mismatches = 0 &&
    ov_expired_add_rejected && ov_trees_stable && ov_reaped >= 1]. *)
