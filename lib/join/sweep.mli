(** Size-ordered sweep skeleton for filter-and-verify similarity joins.

    The nested-loop reference and both literature baselines (STR, SET)
    share the same outer structure, which this module factors out: sort the
    collection by tree size; for every tree, pair it with the already-seen
    trees whose size is within [τ] (one edit operation changes the size by
    at most one, so larger gaps cannot be similar); apply a per-method
    candidate filter; decide surviving candidates with the pair verifier
    every join shares, {!Tsj_ted.Bounds.verify}.

    Filtering (including the method's one-off [setup] such as extracting
    traversal strings or binary-branch bags) is charged to the
    candidate-generation timer; verification (each tree's verifier form,
    built lazily, the cascade and the kernel) is charged to the
    verification timer — matching how the paper attributes runtime. *)

val windowed_join :
  ?metric:Tsj_ted.Bounds.metric ->
  cascade:bool ->
  trees:Tsj_tree.Tree.t array ->
  tau:int ->
  setup:(Tsj_tree.Tree.t array -> 'aux) ->
  filter:('aux -> int -> int -> bool) ->
  unit ->
  Types.output
(** [filter aux i j] receives original array indices.  It must be a true
    filter: returning [false] for a pair whose TED is [<= tau] loses
    results.  [metric] (default [Ted]) and [cascade] are passed to
    {!Tsj_ted.Bounds.verify}; [stats.cascade] counts how each candidate
    was decided.  @raise Invalid_argument if [tau < 0]. *)
