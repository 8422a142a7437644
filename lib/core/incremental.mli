(** Streaming similarity join.

    The paper motivates PartSJ with "streaming workloads where tree
    objects (e.g., XML and HTML entities) are inserted and updated at a
    high rate" — its index is already built on-the-fly.  This module
    removes the remaining batch assumption (size-ascending processing):
    trees may arrive in {e any} order.  On arrival, a tree probes the
    size-keyed index over the whole [size ± τ] window (Lemma 2 partitions
    the {e indexed} tree, so the direction of the size difference is
    irrelevant), reports its join partners among everything seen so far,
    and is then partitioned and indexed itself.

    Feeding a whole collection through {!add} yields exactly the self-join
    result of {!Partsj.join}.

    The same index is the search structure the paper frames the join
    around (Section 1): {!insert} a collection, then {!query} or
    {!nearest} it; querying it with each tree of a second collection is
    the non-self join.  Queries may use any [τ' <= τ]: Lemma 2 only gets
    stronger with fewer allowed edits, and the postorder windows were
    sized for the larger τ, so completeness is preserved. *)

type t

val create : tau:int -> unit -> t
(** @raise Invalid_argument if [tau < 0].  {!add} and {!insert} build
    the tree's verifier form ({!Tsj_ted.Bounds.t}: its stored
    {!Tsj_tree.Form.t} plus a sorted label bag) right away, so the read
    paths never fill anything in.  That form is all the index keeps of
    a tree: no {!Tsj_tree.Tree.t} is stored, and {!tree} rebuilds one.
    Every candidate pair — of {!add}, {!query} and {!nearest} — goes
    through the pair verifier the joins share ({!Tsj_ted.Bounds.verify}
    with the cascade on), which decides most pairs from the bounds
    (equal trees are [Accept 0] there); the rest run the banded
    kernel. *)

val tau : t -> int

val n_trees : t -> int
(** Trees inserted so far. *)

val add : t -> Tsj_tree.Tree.t -> (int * int) list
(** [add t tree] inserts [tree] (its id is the number of previously
    inserted trees) and returns [(id, distance)] for every earlier tree
    within [τ], sorted by id. *)

val insert : t -> Tsj_tree.Tree.t -> unit
(** [insert t tree] indexes [tree] exactly as {!add} does but skips
    finding its partners — for rebuilding an index whose partners were
    already reported (journal replay, snapshot load, a replica applying
    the primary's records). *)

val tree : t -> int -> Tsj_tree.Tree.t
(** The tree stored under an id, rebuilt from its postorder form
    ({!Tsj_tree.Form.to_tree}): a fresh value on every call.
    @raise Invalid_argument on an unknown id. *)

val same_tree : t -> int -> Tsj_tree.Tree.t -> bool
(** [same_tree t id x] is [Tree.equal (tree t id) x], without
    rebuilding the tree ({!Tsj_tree.Form.equal_tree}).
    @raise Invalid_argument on an unknown id. *)

val find_equal : t -> Tsj_tree.Tree.t -> int option
(** The smallest id whose tree is structurally equal to the argument
    (distance 0), if any — an O(1) hash probe checked by {!same_tree},
    no TED.  This is the whole-tree dedup primitive of the serving
    store. *)

val stats : t -> int * int
(** [(candidates verified, subgraphs indexed)] so far. *)

type query_result = {
  hits : (int * int) list;
      (** [(id, distance)] for every verified tree within [τ], sorted by
          distance then id *)
  degraded : bool;
      (** the budget expired before every candidate was verified *)
  unverified : (int * int * int) list;
      (** when degraded: [(id, lower, upper)] bound sandwiches
          ([lower <= TED <= upper]) of the candidates left unverified,
          minus those whose lower bound already exceeds [τ] (provably
          not results); sorted by id.  Each is
          {!Tsj_ted.Bounds.sandwich}: the largest linear lower bound and
          the greedy upper bound, so a degraded answer costs far less
          than verifying *)
}

val query :
  ?budget:Tsj_join.Budget.t ->
  ?tau:int ->
  t ->
  Tsj_tree.Tree.t ->
  query_result
(** Non-mutating similarity search over everything inserted so far —
    the serving path of the streaming index.  [tau] defaults to the
    index threshold and may be any [τ' <= τ] (the probe band shrinks
    with it).  The query tree is preprocessed only when the band yields
    a candidate.  The candidates are verified one after another, each
    through the filter cascade at [τ'] against the stored form, and
    [budget] is polled before the first and then once per 128: an
    expired budget degrades the answer instead of hanging — see
    {!type:query_result}; its sandwiches are computed from the stored
    forms.  With no budget the result is exact.  Fault-injection hit
    point: [incremental.verify] (payload = the candidate's id), once
    before each candidate is verified.
    @raise Invalid_argument if [tau] exceeds the index threshold or is
    negative. *)

val nearest : k:int -> t -> Tsj_tree.Tree.t -> (int * int) list
(** Top-k search within the index threshold: the [k] inserted trees
    closest to the query (by TED, ties by id).  It probes once, at the
    index threshold, and takes the first [k] hits of {!query}.  Fewer
    than [k] pairs are returned when fewer trees lie within [τ].
    @raise Invalid_argument if [k < 0]. *)
