(** Interned node labels.

    Trees in the collections share a small label alphabet (84 distinct labels
    in Swissprot, 5 in Sentiment, ...), while join kernels compare labels
    billions of times.  Labels are therefore interned once into dense
    integers; all structural algorithms work on [int]s and only printing
    resolves names back.

    {b Table.}  One global table: per-id arrays of names, of their
    bracket-escaped forms and of a line-break flag, all computed once when
    the id is given out, plus an open-addressed array of ids (linear
    probing, at most half full) hashed on the name's bytes.  A lookup by
    a slice of a larger string ({!intern_sub}) therefore allocates
    nothing unless the label is new.  Ids are given out in first-seen
    order.

    {b Threads and domains.}  Any thread of any domain may call every
    function here.  Lookups take no lock.  A miss takes one mutex, looks
    again, and only then adds the label, so two threads interning the
    same new name get one id.  The table is never resized in place:
    growth builds the complete bigger table and then publishes it in one
    atomic assignment, so a reader holding the old table still reads a
    consistent one. *)

type t = int
(** An interned label.  Equality and hashing are integer operations. *)

val epsilon : t
(** The dummy/empty label [ε] used for missing children in binary branches
    and twig keys.  Never returned by {!intern}. *)

val intern : string -> t
(** [intern s] returns the unique label for [s], registering it on first
    use.  @raise Invalid_argument on the empty string (reserved for
    {!epsilon}). *)

val intern_sub : string -> int -> int -> t
(** [intern_sub s pos len] is [intern (String.sub s pos len)] without the
    copy when the label is already known.
    @raise Invalid_argument on an empty or out-of-bounds slice. *)

val name : t -> string
(** Printable name of a label; [""] for {!epsilon}.
    @raise Invalid_argument on an unregistered id. *)

val escaped : t -> string
(** The name as bracket notation writes it: [{], [}] and [\] preceded by
    [\].  Physically the name when it needs no escape.
    @raise Invalid_argument on an unregistered id. *)

val has_line_break : t -> bool
(** Does the name contain ['\n'] or ['\r']?
    @raise Invalid_argument on an unregistered id. *)

val mem : string -> bool
(** Has this string been interned already? *)

val count : unit -> int
(** Number of distinct labels interned so far (excluding [ε]). *)

val pp : Format.formatter -> t -> unit
