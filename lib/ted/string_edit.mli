(** Levenshtein edit distance over interned-label arrays, bounded by a
    threshold.

    Used by the filter cascade: the string edit distance between the
    preorder (resp. postorder) label sequences of two trees lower-bounds
    their tree edit distance (Guha et al.).  Below, [distance a b] is
    that string edit distance. *)

val within : int array -> int array -> int -> bool
(** [within a b k] is [true] iff [distance a b <= k], decided by
    {!bounded_distance}.  This is the filter primitive: the join only
    needs the threshold decision, not the exact distance.  [k < 0] is
    always [false]. *)

val bounded_distance : int array -> int array -> int -> int
(** [bounded_distance a b k] is [distance a b] when that is [<= k], and
    [k + 1] otherwise.  Diagonal transition (Ukkonen; Landau–Vishkin):
    for each [e = 0 .. k] it keeps the furthest row reached with [e]
    edits on each diagonal in [[-e, e]] and slides it over runs of
    matching symbols, stopping at the first [e] that reaches the end of
    both strings.  Worst case [O(k * min(|a|,|b|))] time; a near pair
    costs about [O(k^2)] plus its matched runs.  A length difference
    above [k] answers [k + 1] at once.  The working rounds come from the
    per-domain {!Arena}, so a call allocates only its closure.
    @raise Invalid_argument if [k < 0]. *)

val rounds : Arena.t -> int array -> int array -> int -> int
(** [rounds arena a b k] is [bounded_distance a b k] computed on
    [arena], which is left holding every round of the loop
    ([(k + 1) * (2k + 3)] ints) for {!alignment}. *)

val alignment : Arena.t -> int array -> int array -> int -> int -> bool
(** [alignment arena a b k e], right after [rounds arena a b k] answered
    [e <= k], traces back one optimal alignment of [a] and [b] into
    [arena.mate] (which must hold [|a|] cells): [mate.(i) = j] when
    [a.(i)] is aligned with [b.(j)] (a match or a substitution) and [-1]
    when [a.(i)] is deleted.  [O(|a| + |b|)] time.  [false] if the
    rounds do not trace back, which a table left by that call never
    does. *)
