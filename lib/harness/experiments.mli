(** Runners that regenerate every table and figure of the paper's
    evaluation (Section 4), printing the same rows/series in plain-text
    tables.  See DESIGN.md for the per-experiment index and EXPERIMENTS.md
    for recorded paper-vs-measured outcomes.

    Cardinalities default to laptop-scale stand-ins for the paper's
    corpora (the paper runs up to 100K trees on C++ for hours); the
    [scale] knob multiplies them.  All runs are deterministic in
    [seed]. *)

type config = {
  scale : float;       (** multiplies every dataset cardinality *)
  seed : int;
  taus : int list;     (** thresholds for the τ sweeps (paper: 1..5) *)
  out : out_channel;
  domains : int;       (** domain count forwarded to the PartSJ runs *)
}

val default_config : config
(** [scale = 1.0], [seed = 42], [taus = 1..5], stdout, [domains = 1]. *)

val fig10_11 : config -> unit
(** Figures 10 and 11: runtime split (candidate generation vs TED) and
    candidate counts (STR / SET / PRT / REL) vs τ, on all four datasets. *)

val fig12_13 : config -> unit
(** Figures 12 and 13: the same two metrics vs dataset cardinality at
    τ = 3. *)

val fig14 : config -> unit
(** Table 1 + Figure 14: sensitivity to maximum fanout, maximum depth,
    number of labels and average tree size on the synthetic generator,
    τ = 3. *)

val ablation : config -> unit
(** Section 4.3's closing experiment (balanced vs random partitioning)
    plus our index ablations: the paper's rank windows (with missed
    results counted against ground truth) and the label-only index. *)

val parallel : config -> unit
(** Extension bench: the whole PartSJ join (preprocessing, block-parallel
    candidate generation and pipelined verification) on 1, 2, 4 and the
    recommended number of OCaml domains. *)

val perf : config -> unit
(** End-to-end phase benchmark on the fig10-style synthetic dataset at
    τ = 3: runs the join at one domain and at the recommended count,
    prints the wall-time phase split, asserts that result pairs,
    candidate counts and probe statistics are identical across domain
    counts, and at [scale >= 1.0] repeats the cascade off / on / on at
    N domains runs as 11 alternating rounds (the verify speedup is their
    median, its quartiles are recorded too; a best domain count is named
    only when the 1-domain and N-domain wall-time quartile ranges do not
    overlap, else it prints [unresolved] and records [null]) and writes the machine-readable record to
    [BENCH_partsj.json] in the current directory (a smaller run writes
    nothing, so it never overwrites the committed full-scale record).
    It then joins the subtree-repetition-heavy [redundant] profile at
    one and the recommended domain count and asserts the outputs
    bit-identical ({!Tsj_join.Types.equal_deterministic}).
    @raise Failure if two runs disagree. *)

val streaming : config -> unit
(** Extension bench: cumulative throughput of the incremental
    (streaming) join as the history grows. *)

val resilience : config -> unit
(** Extension bench: the resilient-execution scenarios.  Runs a
    kill-and-resume (injected crash between blocks, checkpoint journal
    every block) at one domain and at the configured parallel count,
    asserting the resumed output bit-identical to an uninterrupted run;
    then a tiny per-pair budget, asserting no false positives and
    completeness up to the quarantined set.
    @raise Failure on any violation. *)

val experiments : (string * (config -> unit)) list
(** Every runner above under its command-line name ([fig10] prints
    Figures 10 and 11, [fig12] Figures 12 and 13, [fig14] Table 1 and
    Figure 14), in paper order, extensions last.  The bench harness and
    [tsj bench] dispatch through this list. *)

val run_all : config -> unit
(** Runs {!experiments} in order. *)
