(** Common result/statistics types shared by all similarity-join methods
    (the nested-loop reference, the STR and SET baselines, and PartSJ).

    Every method takes the tree collection and the TED threshold [τ] and
    returns the set of similar pairs together with instrumentation that
    mirrors the paper's evaluation: the number of candidate pairs sent to
    exact TED verification (Figures 11/13) and the runtime split between
    candidate generation and TED computation (the stacked bars of
    Figures 10/12).

    {b Quarantine.}  Resilient joins never abort on a pathological
    record: work that cannot be completed (a tree whose preprocessing
    raises, a pair whose verification exceeds the per-pair budget, work
    left when the wall-clock budget expires) is diverted to the
    [quarantined] list of the output with a machine-readable reason.
    The soundness contract is: [pairs] contains no false positives, and
    the join is complete up to the quarantined set — every true result
    pair not in [pairs] involves a quarantined tree or is itself a
    quarantined pair. *)

type pair = {
  i : int;       (** index of the first tree in the input array *)
  j : int;       (** index of the second tree; [i < j] *)
  distance : int;(** their exact tree edit distance, [<= τ] *)
}

(** Why a record was quarantined instead of processed. *)
type quarantine_reason =
  | Malformed of { line : int; col : int; message : string }
      (** an input record that failed to parse under [--skip-malformed];
          the index is the 0-based record ordinal in the input file, not
          a tree index *)
  | Preprocess_failed of string
      (** preprocessing (TED prep, LC-RS transform, bound compilation)
          raised; the tree takes part in no pair *)
  | Pair_budget of { lower : int; upper : int }
      (** the pair's exact-kernel cost estimate exceeded the per-pair
          budget; [lower]/[upper] are the TED bounds established before
          quarantining ([lower <= TED <= upper]) *)
  | Verify_failed of string  (** the verifier raised on this pair *)
  | Deadline
      (** the wall-clock budget expired (or the join was cancelled)
          before this tree/pair was processed *)

type quarantined = {
  q_i : int;           (** tree index (or first of the pair, [q_i < q_j]) *)
  q_j : int option;    (** [Some j] for a pair, [None] for a whole tree *)
  q_reason : quarantine_reason;
}

val pp_quarantine_reason : Format.formatter -> quarantine_reason -> unit

val pp_quarantined : Format.formatter -> quarantined -> unit

type cascade = {
  pruned_size : int;  (** rejected by the size lower bound *)
  pruned_labels : int;  (** rejected by the label-histogram lower bound *)
  pruned_degrees : int;  (** rejected by the degree-histogram lower bound *)
  pruned_sed : int;  (** rejected by the banded traversal-SED lower bound *)
  early_accepted : int;
      (** admitted without a kernel run: the lower and upper bounds met *)
  kernel_verified : int;  (** decided by the exact (banded) DP kernel *)
  quarantined : int;
      (** candidate pairs diverted to quarantine (budget, verifier
          failure, deadline) — counted here so the stage counters still
          partition the candidate set *)
  memo_hits : int;  (** always 0: the kernel has no cross-pair cache *)
  memo_misses : int;  (** always 0 *)
}
(** Per-stage counters of the verification filter cascade.  For every
    join they partition the candidate set:
    [cascade_total stats.cascade = stats.n_candidates].  A join run
    without the cascade counts every pair it decides under
    [kernel_verified].
    [memo_hits]/[memo_misses] are kept for readers compiled against
    them and sit outside the partition. *)

val empty_cascade : cascade

val tally : unit -> int array
(** A fresh tally: one zero counter per partition field of {!cascade},
    in field order ([pruned_size] .. [quarantined]). *)

val count : int array -> Tsj_ted.Bounds.verdict -> unit
(** [count tally v] counts one pair decided [v] under its {!cascade}
    field; an {!Tsj_ted.Bounds.Unverified} pair counts as [quarantined]. *)

val cascade_of_tally : int array -> cascade

val cascade_total : cascade -> int
(** Sum of the partition counters ({!cascade.memo_hits}/[memo_misses]
    excluded). *)

type stats = {
  n_trees : int;
  tau : int;
  n_window_pairs : int;
      (** pairs surviving the size-difference filter (the universe every
          method draws candidates from) *)
  n_candidates : int;
      (** pairs sent to the verifier (cascade or exact TED) *)
  n_results : int;
  candidate_time_s : float;
      (** wall time spent generating/filtering candidates *)
  verify_time_s : float;
      (** wall time spent in verification (cascade + kernels) *)
  cascade : cascade;
      (** how the verifier decided the candidates, stage by stage *)
}

type output = {
  pairs : pair list;
  quarantined : quarantined list;
      (** records/trees/pairs skipped by the resilience layer (empty for
          non-resilient methods and for clean runs) *)
  stats : stats;
}

val total_time_s : stats -> float

val pair_set : output -> (int * int) list
(** Result pairs as sorted [(i, j)] tuples — handy for equality checks
    between methods. *)

val equal_results : output -> output -> bool
(** Same set of pairs (distances included). *)

val equal_deterministic : output -> output -> bool
(** {!equal_results} plus the quarantine set and every deterministic
    counter (candidates, results, cascade stages) — the equality the
    checkpoint/resume and cross-domain-count guarantees are stated in
    (wall-clock timings excluded). *)

val pp_stats : Format.formatter -> stats -> unit
