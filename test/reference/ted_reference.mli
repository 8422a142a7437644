(** Exact-TED and string-edit references for the tests and the fuzzer.

    The library's one exact-TED kernel is the τ-banded Zhang–Shasha DP
    ([Tsj_ted.Ted]); the oracles it is checked against live here:
    - {!distance_postorder}, a plain unbounded Zhang–Shasha that
      allocates its own tables on every call;
    - {!Naive}, the memoized forest recursion, independent of
      Zhang–Shasha and exponential, so for trees of about 12 nodes;
    - {!Mapping}, Zhang–Shasha with a backtrace to an optimal edit
      mapping, whose cost the tests compare with {!distance};
    - {!sed}, the full string edit distance DP. *)

module Naive = Naive
module Mapping = Mapping

val distance_postorder : Tsj_tree.Postorder.t -> Tsj_tree.Postorder.t -> int
(** The exact TED of two trees in postorder form, by Zhang–Shasha over
    the decomposition the postorders give: left-path on the left
    postorders, right-path on the mirrors' ones.  Both give the same
    distance. *)

val distance : Tsj_tree.Tree.t -> Tsj_tree.Tree.t -> int
(** [distance_postorder] on the two trees' left postorders. *)

val sed : int array -> int array -> int
(** The string edit distance (unit costs), by the full
    [(|a| + 1) * (|b| + 1)] table. *)
