(** PartSJ — the paper's partition-based tree similarity self-join
    (Algorithm 1, the method called PRT in the evaluation).

    Trees are processed in ascending size order.  For the current tree
    [Ti], the subgraphs of previously processed trees with size in
    [|Ti| - τ .. |Ti|] are probed through the size-keyed two-layer index
    ({!Size_bands}):
    every node [N] of [Ti] selects only the subgraphs whose postorder
    group and twig key are compatible with [N]; a selected subgraph that
    actually matches makes its container tree a candidate, verified once
    with the exact TED.  Finally [Ti] itself is partitioned into
    [δ = 2τ + 1] balanced subgraphs and inserted into the index — the
    index is built on-the-fly, there is no offline phase.

    Trees with fewer than [δ] nodes cannot be δ-partitioned (a tree of
    [n] nodes has only [n - 1] edges); they are kept in per-size overflow
    lists and treated as always-candidates within the size window, which
    preserves completeness (such trees have at most [2τ] nodes, so they
    are both rare and cheap to verify).

    {b Parallel execution.}  Candidate generation is one sequential
    probe-then-insert sweep over one {!Size_bands}, as in Algorithm 1;
    with [domains > 1] the work around it runs on the shared
    work-stealing pool of {!Tsj_join.Pool}.  Preprocessing compiles
    every tree's verifier form in parallel up front; the LC-RS form the
    sweep probes, partitions and indexes is derived from that form's
    postorder ({!Tsj_tree.Binary_tree.of_postorder}) when the sweep
    reaches the tree, and dropped after its insert.  The sweep goes in
    fixed-size blocks: a block's sweep runs as one task while the
    {e previous} block's candidates are verified by the other tasks of
    the same pool job (software pipelining).  Blocks are only the unit
    of that pipelining and of checkpoints; their size is a constant,
    independent of [domains].  Only the sweep touches the index, and
    verification is a pure function of the immutable preprocessed data,
    so the candidate stream, the result pairs and all statistics are
    bit-identical at every domain count — parallelism changes only the
    wall clock.

    {b Resilient execution.}  The join degrades gracefully instead of
    failing or running away:

    - a tree whose preprocessing raises is {e quarantined}
      ({!Tsj_join.Types.Preprocess_failed}) — it joins in no pair but the
      rest of the collection is processed normally;
    - with a {!Tsj_join.Budget}, a candidate pair whose exact-kernel cost
      estimate exceeds the per-pair limit is quarantined with its bound
      sandwich ({!Tsj_join.Types.Pair_budget}), and a wall-clock expiry or
      {!Tsj_join.Budget.cancel} drains the pool cooperatively at the next
      chunk boundary, quarantining every unprocessed pair and tree
      ({!Tsj_join.Types.Deadline}) — the shared pool stays reusable;
    - a verifier exception quarantines the pair
      ({!Tsj_join.Types.Verify_failed}) instead of killing the join.

    The soundness contract: [output.pairs] never contains a false
    positive, and [pairs ∪ quarantined] covers the ground truth — every
    true result pair is either reported exactly or accounted for in the
    quarantine record.

    {b Checkpoint/resume.}  With a {!Tsj_join.Checkpoint.config} the join
    journals its accumulated outputs after every [every] completed blocks
    (atomically — a kill mid-save never tears the journal); with
    [resume:true] it loads the journal, replays the indexing of the
    completed blocks (consuming the partitioning RNG in the original
    order) and continues mid-sweep.  The resumed run's pairs, quarantine
    records and deterministic counters are bit-identical to an
    uninterrupted run, at every domain count. *)

type partitioning =
  | Balanced          (** max-min-size partitioning (Section 3.3) *)
  | Random of int     (** seeded random bridging edges — ablation *)

type phase_times = {
  prep_wall_s : float;   (** parallel preprocessing wall time *)
  sweep_wall_s : float;  (** pipelined candidate + verify sweep wall time *)
  total_wall_s : float;
  domains_used : int;
}
(** Wall-clock phase split reported through [on_phases] — the
    machine-readable counterpart of the attributed per-phase stats (with
    pipelining, candidate and verification work overlap in wall time, so
    [candidate_time_s + verify_time_s] of {!Tsj_join.Types.stats} can
    exceed [sweep_wall_s] on several domains). *)

val join :
  ?partitioning:partitioning ->
  ?index_mode:Two_layer_index.mode ->
  ?domains:int ->
  ?cascade:bool ->
  ?metric:Tsj_ted.Bounds.metric ->
  ?budget:Tsj_join.Budget.t ->
  ?checkpoint:Tsj_join.Checkpoint.config ->
  ?on_phases:(phase_times -> unit) ->
  trees:Tsj_tree.Tree.t array ->
  tau:int ->
  unit ->
  Tsj_join.Types.output
(** @raise Invalid_argument if [tau < 0], [domains < 1], or a
    [checkpoint] with [resume:true] names a journal that is corrupt or
    was written by a different dataset/configuration.  [index_mode]
    defaults to the sound {!Two_layer_index.Start_window} windows; with
    {!Two_layer_index.Paper_rank} the join is faster but may miss result
    pairs (see {!Two_layer_index}).  [domains] (default 1) runs
    preprocessing, and verification pipelined beside the sequential
    candidate sweep, on that many OCaml domains; the result is identical
    at every count.  Every candidate is decided by
    {!Tsj_ted.Bounds.verify}, the pair verifier every join method and
    {!Incremental} share, on per-tree forms built once in preprocessing.
    [metric] swaps its kernel (default: unrestricted TED); any metric
    that never underestimates TED — e.g. {!Tsj_ted.Constrained} — keeps
    the subgraph filter {e and} the bound cascade lossless, realizing the
    paper's "other tree distance metrics" future-work point.  [cascade]
    (default [true]) runs the staged filter cascade in front of the
    kernel: lower bounds cheapest-first with short-circuit (size → label
    histogram → degree histogram → banded traversal SED), then the
    greedy-mapping upper bound, which early-accepts a pair whose bound
    sandwich closes and otherwise shrinks the kernel band below τ;
    [cascade:false] runs the τ-banded kernel alone on every candidate.
    Every stage is lossless, so pairs {e and} distances are bit-identical
    with the cascade on or off.  Per-stage decisions are reported in
    [stats.cascade]; the counters (including [quarantined]) partition the
    candidate set.  [budget] enables the resilience limits and
    [checkpoint] the progress journal described above.  In the reported
    stats, [candidate_time_s] is the sweep (LC-RS forms, probes and
    inserts) and [verify_time_s] the cascade and kernels; preprocessing
    is in neither, only in [prep_wall_s] of {!phase_times}. *)

type probe_stats = {
  n_probed : int;        (** subgraphs returned by index probes *)
  n_matched : int;       (** probed subgraphs that matched *)
  n_small_tree_hits : int; (** candidates from the sub-δ overflow lists *)
  n_subgraphs_indexed : int;
}

val join_with_probe_stats :
  ?partitioning:partitioning ->
  ?index_mode:Two_layer_index.mode ->
  ?domains:int ->
  ?cascade:bool ->
  ?metric:Tsj_ted.Bounds.metric ->
  ?budget:Tsj_join.Budget.t ->
  ?checkpoint:Tsj_join.Checkpoint.config ->
  ?on_phases:(phase_times -> unit) ->
  trees:Tsj_tree.Tree.t array ->
  tau:int ->
  unit ->
  Tsj_join.Types.output * probe_stats
(** Same join, also reporting index-behaviour counters (used by the
    ablation benches and tests).  The counters are deterministic: they
    are sums over the one sequential sweep. *)
