(** Bracket notation for trees — the interchange format used throughout the
    TED literature (and by the RTED reference implementation):
    [{a{b{c}}{d}}] is a root [a] with children [b] (itself parent of [c])
    and [d].

    Labels may contain any characters except unescaped braces; [\{], [\}]
    and [\\] escape a literal brace/backslash.

    {b Codec.}  Rendering appends each label's escaped form, computed once
    per label id ({!Label.escaped}).  Parsing is one pass over an int
    position: a label without [\] is interned straight from its slice of
    the input ({!Label.intern_sub}), and only a label holding [\] is
    unescaped, through one scratch buffer per parse. *)

val to_string : Tree.t -> string

val to_buffer : Buffer.t -> Tree.t -> unit
(** Appends {!to_string}'s text. *)

val of_string : string -> (Tree.t, string) result
(** Parses exactly one tree (surrounding whitespace allowed); the error
    string starts with the 1-based ["line L, column C"] of the offending
    character, followed by the cause. *)

val of_substring : string -> pos:int -> len:int -> (Tree.t, string) result
(** [of_substring s ~pos ~len] is [of_string (String.sub s pos len)],
    error positions included, without the copy.
    @raise Invalid_argument on an out-of-bounds slice. *)

val of_string_exn : string -> Tree.t
(** @raise Invalid_argument on a parse error. *)

val forest_of_string : string -> (Tree.t list, string) result
(** Parses zero or more whitespace-separated trees.  Fails on the first
    malformed record, with its line/column. *)

val forest_of_string_lenient : string -> Tree.t list * (int * int * string) list
(** Best-effort forest parse for dirty corpora: malformed records are
    skipped and reported as [(line, column, message)] (1-based) instead
    of failing the whole load.  After an error the parser resynchronizes
    at the start of the next line, so a multi-line record loses its
    spilled lines too.  The error list is in input order. *)

val load_file : string -> (Tree.t list, string) result
(** One or more trees per file, whitespace/newline separated.  Lines whose
    first non-blank character is [#] are comments. *)

val load_file_lenient : string -> (Tree.t list * (int * int * string) list, string) result
(** {!forest_of_string_lenient} over a file; [Error] only for I/O
    failures. *)

val save_file : string -> Tree.t list -> unit
(** One tree per line. *)
