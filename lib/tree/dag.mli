(** Hash-consed subtree DAG store.

    Interning a tree maps every distinct subtree to one immutable
    {!node} with a stable id, so a collection dominated by repeated
    subtrees (the common case — see the self-nested-trees literature)
    collapses to a DAG whose resident set shrinks by the redundancy
    factor.  Structural equality of interned subtrees is id equality:
    children are interned bottom-up, so the collision check on a hash
    bucket only compares the label and the child ids, which is exact by
    induction.  The [tree] view of a node shares substructure with
    every other node, so structurally equal subtrees are also
    physically equal ([==]) — the cheap equality the kernels and the
    store-level dedup exploit.

    Ids are allocated from one process-wide counter: ids from distinct
    stores never collide, which keeps the TED kernels' equal-id fast
    path sound on pairs drawn from two stores.

    Like {!Label}, a store is not synchronized — intern from one domain
    at a time.  The interned nodes themselves are immutable and safe to
    share across domains. *)

type node = private {
  id : int;             (** globally unique; equal iff subtrees equal *)
  label : Label.t;
  children : node array;
  size : int;           (** number of nodes in the subtree *)
  hash : int;
  tree : Tree.t;        (** shared structural view *)
}

type t

val create : ?hash_bits:int -> unit -> t
(** A fresh empty store.  [hash_bits] truncates the structural hash to
    that many bits — a test hook that forces bucket collisions to
    exercise the collision-checked equality; production stores use the
    full hash.  @raise Invalid_argument if outside [1..62]. *)

val intern : t -> Tree.t -> node
(** [intern t tree] returns the unique node for [tree], creating nodes
    for any subtrees not seen before.  O(size) hash lookups. *)

val find : t -> Tree.t -> node option
(** Read-only lookup: the node for [tree] if every subtree of it is
    already interned, [None] otherwise.  Never mutates the store, so it
    is safe concurrently with reads (not with {!intern}). *)

val tree : node -> Tree.t

val id : node -> int

val size : node -> int

val n_nodes : t -> int
(** Distinct subtree nodes created by this store. *)

val interned : t -> int
(** Total subtree intern requests (the sum of interned tree sizes);
    [interned / n_nodes] is the sharing factor. *)

val sharing : t -> float
(** [interned t / n_nodes t] — mean occurrences per distinct subtree. *)
