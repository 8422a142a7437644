(** The SET baseline (adopted from Yang, Kalnis & Tung, SIGMOD 2005): each
    tree is transformed into its bag of binary branches once; a pair
    survives candidate generation iff its binary branch distance satisfies
    [BIB <= 5τ].  The binary branch structure is insensitive to [τ] — the
    weakness the paper's Section 4 highlights: as [τ] grows, SET's
    candidate set grows much faster than STR's or PartSJ's.  Survivors
    are decided by the pair verifier every method shares
    ({!Tsj_ted.Bounds.verify}, cascade on). *)

val join :
  ?metric:Tsj_ted.Bounds.metric ->
  trees:Tsj_tree.Tree.t array -> tau:int -> unit -> Tsj_join.Types.output
