(** Ground-truth similarity self-join: every size-window pair is verified
    with the exact TED (no candidate filter beyond the size bound), by the
    τ-banded kernel alone ({!Tsj_ted.Bounds.verify} with the cascade off),
    so the reference the other methods are tested against never runs the
    filter cascade.

    Quadratic in the collection size and cubic per pair — usable only on
    small inputs, but it defines the correct answer every other method is
    tested against (and it is the "straightforward join" the paper's
    introduction argues is too expensive). *)

val join :
  ?metric:Tsj_ted.Bounds.metric ->
  trees:Tsj_tree.Tree.t array -> tau:int -> unit -> Types.output

val rel_count : trees:Tsj_tree.Tree.t array -> tau:int -> int
(** Number of similar pairs — the REL series of Figures 11/13. *)
