(** The join methods of the paper's evaluation, behind one dispatch type.

    STR, SET and PRT are the three methods compared throughout Section 4;
    NL is the unfiltered ground truth; the PRT variants drive the ablation
    experiments (random partitioning, and the paper's literal postorder
    windows vs. our sound start-relative default — see
    {!Tsj_core.Two_layer_index}). *)

type t =
  | Nl          (** nested loop + size filter (ground truth) *)
  | Str         (** traversal-string filter (Guha et al.) *)
  | Set         (** binary-branch filter (Yang et al.) *)
  | Prt         (** PartSJ, balanced partitioning, sound index *)
  | Prt_random  (** PartSJ with random bridging edges (ablation) *)
  | Prt_paper_index (** PartSJ with the paper's rank windows (ablation;
                        may miss results) *)

val name : t -> string

val of_name : string -> t option
(** Case-insensitive; accepts the paper's names ("STR", "SET", "PRT") and
    the ablation suffixes ("PRT-random", "PRT-paper"). *)

val all : t list

val paper_methods : t list
(** [STR; SET; PRT] — the three lines of every figure. *)

val supports_resilience : t -> bool
(** Whether {!run}'s [budget]/[checkpoint] options have any effect:
    [true] for the PartSJ variants, [false] for the baselines. *)

val run :
  ?domains:int ->
  ?metric:Tsj_ted.Bounds.metric ->
  ?budget:Tsj_join.Budget.t ->
  ?checkpoint:Tsj_join.Checkpoint.config ->
  t ->
  trees:Tsj_tree.Tree.t array ->
  tau:int ->
  Tsj_join.Types.output
(** [domains] (default 1) is forwarded to the PartSJ variants, which run
    their whole pipeline on that many OCaml domains; the baselines are
    sequential and ignore it.  [metric] (default TED) is passed to every
    method.  [budget] and [checkpoint] enable the
    resilient execution of {!Tsj_core.Partsj} and are likewise
    PartSJ-only (see {!supports_resilience}). *)
