(** Wire protocol of the similarity-search service: one request grammar,
    one request line in, one reply line out.  A connection carries the
    lines either newline-delimited (the default) or, after a [HELLO],
    each in a length-prefixed binary frame; the bytes of a line are the
    same in both.

    Grammar (a tree is bracket notation; on a newline connection it
    cannot contain a newline, inside a frame it can — but [ADD] refuses
    a label with a line break, since journal records are lines):
    {v
    request  := "QUERY" SP tau SP [lag SP] [deadline SP] tree   similarity search at τ' <= index τ
              | "KNN" SP k SP [lag SP] [deadline SP] tree       top-k within the index τ
              | "ADD" SP [seq SP] [deadline SP] tree    journal + index a tree (seq: see below)
              | "GET" SP seq                  fetch the tree bound to a sequence number
              | "DIGEST" SP epoch SP lo SP hi Merkle digest of records [lo, hi)
              | "STATS" | "HEALTH" | "DRAIN" | "PROMOTE"
              | "SYNC" SP epoch SP from_seq   replica joins: stream me from from_seq
              | "ACKED" SP seq                replica has durably applied up to seq
    lag      := "~" n                         staleness bound, records (see below)
    deadline := "@" ms                        remaining budget, milliseconds (see below)
    reply    := "HITS" SP degraded(0|1) SP nh SP nu {SP id":"dist}*nh {SP id":"lo":"hi}*nu
              | "ADDED" SP id SP np {SP id":"dist}*np
              | "TREE" SP seq SP tree         reply to GET
              | "STATS" SP key"="int ...
              | "OK" SP ("serving"|"draining"|"drained")
              | "BUSY" [SP retry_after_ms]    shed by admission control
              | "ERR" SP reason               never a silent drop
              | "SYNC" SP epoch SP base SP high   stream header (primary -> replica)
              | "RECORD" SP journal-line      one checksummed journal record pushed
              | "DIGEST" SP epoch SP lo SP hi SP hex   reply to DIGEST
              | "FENCED" SP epoch             refused: a higher epoch exists
              | "PROMOTED" SP epoch           this node is now primary at epoch
              | "REDIRECT" SP address         stale replica: ask upstream
    v}

    {b Anti-entropy.}  [DIGEST <epoch> <lo> <hi>] asks for the Merkle
    digest of the canonical journal records [\[lo, hi)] (see
    {!Integrity.Merkle}); the answer [DIGEST <epoch> <lo> <hi> <hex>]
    echoes the range.  Two stores holding the same trees answer
    identically, so a verifier binary-searches range digests to locate
    the first diverging sequence in O(log n) round trips and repairs
    {e only} the suffix from there (via [GET]/[RECORD] regeneration) —
    no full re-sync.  A node at a different epoch answers
    [FENCED <epoch>]; a range beyond the tree count is [ERR].

    {b Replication stream.}  A replica connects and sends
    [SYNC <epoch> <from_seq>] as a newline line.  The primary answers
    with the stream header [SYNC <epoch> <base> <high>] (its epoch, the
    first sequence number of that epoch and its tree count); from then
    on the roles invert on that connection: the primary pushes
    [RECORD <journal-line>] and the replica answers each with
    [ACKED <n>] ([n] = its new tree count, i.e. the next sequence it
    needs) only {e after} the record is flushed to its own journal.  A
    node that sees evidence of a higher epoch answers [FENCED <epoch>]
    instead and the stream ends.  [SYNC] hands the socket to a
    replication thread, so it is the one verb a frame cannot carry: a
    framed [SYNC] is answered [ERR].

    {b Idempotency contract of [ADD].}  [ADD <seq> <tree>] binds [tree]
    to sequence number [seq] exactly once: if [seq] equals the store's
    next sequence the tree is journaled and indexed; if [seq] is already
    bound {e to the same tree} the reply is the original
    [ADDED <seq> ...] (recomputed, bit-identical) and nothing is
    written; if [seq] is bound to a {e different} tree or is beyond the
    next sequence, the reply is [ERR].  A client that timed out after
    the request may have been executed must therefore retry {e with the
    same seq} — the retry is then safe whether or not the original
    arrived, including across a failover to a server the record was
    replicated to.  Bare [ADD <tree>] (no seq) lets the server assign
    the next sequence and is {e not} safe to retry blind; {!Client}
    always attaches a seq.

    {b Deadline propagation.}  The optional [@<ms>] token on
    [QUERY]/[KNN]/[ADD] is the client's {e remaining budget} for the
    whole call, in milliseconds — a relative span, so no clock
    synchronisation is needed.  Every hop subtracts its own elapsed time
    before forwarding (the router additionally reserves a response
    margin), making the propagated value monotonically non-increasing.
    A server drops queued work whose budget has already run out instead
    of computing an answer nobody is waiting for: the reply is
    [ERR deadline expired] and the drop is counted in STATS as
    [expired].  Requests without the token keep the server's own default
    budget.  A BUSY shed may carry a retry-after hint in milliseconds:
    the earliest time a retry can be admitted, which {!Client} uses as
    its backoff floor.

    {b Bounded-staleness reads.}  The optional [~<n>] token on
    [QUERY]/[KNN] is [max_lag], the largest number of acked sequence
    numbers the client tolerates the answering node being behind the
    primary.  The primary always answers (lag 0).  A replica knows its
    lag from the stream header's high-water mark and the records it has
    applied; it answers locally iff it is synced and
    [primary_high - n_trees <= max_lag], and otherwise replies
    [REDIRECT <addr>] naming its upstream so the client can retry
    against the primary (or [ERR] when it has no known upstream).
    Requests without the token: any node answers from whatever it has.

    Parsers on both sides are lenient: any malformed input yields
    [Error reason], never an exception, and tree diagnostics carry the
    bracket parser's ["line L, column C"] location.  A malformed
    [~]/[@] token (garbage, negative, overflow) is a parse error
    answered [ERR] naming the verb, never silently treated as part of
    the tree.

    {b Binary frames.}  Every connection starts newline-delimited.  A
    client that wants frames sends one text line [HELLO BIN <v>] as a
    request; for [v >= 3] the server answers the text line
    [HELLO BIN 3] and {e both} sides switch to frames immediately after
    their respective newline.  Any [v < 3] (the retired per-verb frame
    layouts) is answered [ERR] and the connection stays newline-delimited,
    as after a malformed hello.  There is no downgrade path on a
    connection.  A frame is (integers big-endian, unsigned):
    {v
    frame := len:u32 id:u32 op:u8 body:byte[len-5]
    body  := the request or reply line, without its newline
    op    := 0x01 (request) | 0x81 (reply)
    v}
    [len] counts everything after the length field itself, so a frame
    occupies [4 + len] bytes and [len >= 5].  [id] is a client-chosen
    request id echoed verbatim on the matching reply; requests may be
    pipelined and replies to {e reads and writes} may arrive out of
    order, matched only by id.  A frame with any other [op] is answered
    [ERR unknown opcode] by id. *)

(** Server address: a Unix-domain socket path or a TCP endpoint. *)
type addr = Unix_path of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["host:port"] (or [":port"], defaulting to 127.0.0.1) parses as TCP;
    anything containing a [/] or no [:] is a Unix socket path. *)

val addr_to_string : addr -> string

type request =
  | Query of { tau : int; tree : Tsj_tree.Tree.t }
  | Knn of { k : int; tree : Tsj_tree.Tree.t }
  | Add of { seq : int option; tree : Tsj_tree.Tree.t }
      (** [seq]: client-chosen sequence number enabling safe retries
          (see the idempotency contract above). *)
  | Stats
  | Health
  | Drain
  | Sync of { epoch : int; from_seq : int }
      (** Replica join: "stream me every record from [from_seq]; my
          journal header says epoch [epoch]". *)
  | Ack of int  (** [ACKED n]: the replica durably holds [n] trees. *)
  | Get of int
      (** [GET seq]: fetch the tree bound to a sequence number — the
          sharded router's ledger-recovery and migration-verification
          primitive.  Answered [TREE seq tree], or [ERR] when [seq] is
          unbound. *)
  | Digest of { epoch : int; lo : int; hi : int }
      (** [DIGEST epoch lo hi]: Merkle digest of the canonical records
          [\[lo, hi)] — the anti-entropy probe. *)
  | Promote
      (** Make this node primary: bump the epoch (persisted in the
          journal header) and start accepting writes. *)

val max_deadline_ms : int
(** Largest remaining budget a [@<ms>] token carries
    ({!Admission.Deadline.max_ms}); parsers and renderers clamp larger
    values to it. *)

val parse_request : string -> (request, string) result
(** [parse_request_d] with the tokens dropped. *)

val parse_request_d : string -> (request * int option * int option, string) result
(** The request plus its staleness bound ([~<n>], [Query]/[Knn]) and its
    remaining-budget deadline in milliseconds ([@<ms>]), when the line
    carried them. *)

val render_request : request -> string

val render_request_d : ?max_lag:int -> ?deadline_ms:int -> request -> string
(** [render_request] with the tokens attached: [max_lag] on [Query]/[Knn],
    [deadline_ms] on [Query]/[Knn]/[Add]; other verbs ignore them.
    Negative values render as 0. *)

(** The counters of a [STATS] reply (all monotonic since server start,
    except [trees], [inflight], [draining] and [journal_records]). *)
type stats_reply = {
  trees : int;
  tau : int;
  queries : int;
  adds : int;
  shed : int;  (** requests answered [BUSY] by admission control *)
  degraded : int;  (** queries that returned a partial answer *)
  errors : int;  (** requests answered [ERR] *)
  quarantined : int;  (** connections quarantined by a fault/disconnect *)
  inflight : int;
  draining : bool;
  journal_records : int;
  epoch : int;  (** replication epoch persisted in the journal header *)
  primary : bool;  (** whether this node currently accepts writes *)
  dedup : int;
      (** duplicate ADDs suppressed by the store's dedup layer (0 when
          dedup is off).  This and every field below parse as 0 when a
          reply (from an older server) lacks them. *)
  scrubbed : int;  (** journal records re-verified by the background scrubber *)
  crc_failures : int;  (** checksum/seal findings, at open or by scrub *)
  repaired : int;
      (** healed journal records + scrub repairs + anti-entropy range
          repairs *)
  expired : int;
      (** requests dropped (pre- or post-compute) because their
          propagated deadline had already passed — the client was no
          longer waiting *)
  accept_pauses : int;
      (** times the acceptor backed off after EMFILE/ENFILE instead of
          spinning on a hot listener *)
  reaped : int;
      (** connections closed by hygiene: idle timeout, output-buffer
          overflow, or the max-conns cap *)
  q_p50 : int;
      (** QUERY service latency quantiles in microseconds, from a
          log-bucket histogram (lower bound of the bucket holding the
          quantile — exact to within 2x); 0 until the first QUERY *)
  q_p95 : int;
  q_p99 : int;
  k_p50 : int;  (** KNN latency quantiles, µs *)
  k_p95 : int;
  k_p99 : int;
  a_p50 : int;  (** ADD latency quantiles (admission to ack), µs *)
  a_p95 : int;
  a_p99 : int;
}

type response =
  | Hits of {
      degraded : bool;
      hits : (int * int) list;  (** [(id, distance)], distance then id *)
      unverified : (int * int * int) list;
          (** [(id, lower, upper)] bound sandwiches of candidates left
              unverified when the request deadline expired *)
    }
  | Added of { id : int; partners : (int * int) list }
  | Tree_reply of { seq : int; tree : Tsj_tree.Tree.t }
      (** Reply to [GET]: the tree bound to [seq], verbatim. *)
  | Stats_reply of stats_reply
  | Health_reply of { draining : bool }
  | Drained
  | Busy of { retry_after_ms : int option }
      (** Shed by admission control.  The hint, when present, is the
          earliest time (relative, milliseconds) a retry can be
          admitted; bare [BUSY] parses with no hint. *)
  | Err of string
  | Sync_stream of { epoch : int; base : int; high : int }
      (** Stream header: the primary's epoch, that epoch's first
          sequence number (the promotion point), and the primary's tree
          count when the stream started — the replica's first high-water
          mark for bounded-staleness reads.  Rendered as
          [SYNC <epoch> <base> <high>]; the parser also accepts the
          pre-binary two-integer form ([high] defaults to [base]). *)
  | Record of string  (** One raw journal record line, pushed verbatim. *)
  | Digest_reply of { epoch : int; lo : int; hi : int; digest : string }
      (** Reply to [Digest]: the range echoed plus its 16-hex-digit
          Merkle digest. *)
  | Fenced of int
      (** Write/stream refused: a primary at the given (higher) epoch
          exists; the receiver must demote or fail over. *)
  | Promoted of int  (** Reply to [PROMOTE]: the new epoch. *)
  | Hello_reply of int
      (** [HELLO BIN <v>]: the server accepts the binary handshake at
          protocol version [v]; both sides switch to frames after this
          line. *)
  | Redirect of string
      (** A bounded-staleness read refused by a stale replica; the
          payload is its upstream's address. *)

val zero_stats : stats_reply
(** Every counter 0, every flag false. *)

val render_response : response -> string
(** Always a single line: newlines inside error reasons are replaced. *)

val parse_response : string -> (response, string) result

(** The binary framing: a 9-byte header around a line of the grammar
    above.  Decoders take the [op] byte and the body of one already
    deframed frame and never raise on wire data — a malformed body is
    [Error reason]. *)
module Binary : sig
  val version : int
  (** The frame protocol version this build speaks: 3, where every body
      is the text line. *)

  val hello : int -> string
  (** The handshake line [HELLO BIN <v>] (no trailing newline). *)

  val parse_hello : string -> int option
  (** [Some v] iff the line is a well-formed [HELLO BIN <v>], [v >= 1]. *)

  val get_u32 : string -> int -> int
  (** Big-endian unsigned 32-bit read at a byte offset — for deframing
      the [len]/[id] header fields.  @raise Invalid_argument if the
      string is too short. *)

  val frame : Buffer.t -> id:int -> op:int -> string -> unit
  (** Append one raw frame ([len id op body]) with an arbitrary opcode
      and body — the escape hatch the wire fuzzer uses to craft
      malformed frames. *)

  val encode_request :
    Buffer.t -> id:int -> ?max_lag:int -> ?deadline_ms:int -> request -> unit
  (** Append one request frame whose body is
      [render_request_d ?max_lag ?deadline_ms req]. *)

  val decode_request :
    version:int ->
    op:int ->
    body:string ->
    (request * int option * int option, string) result
  (** [parse_request_d body] for the request opcode; [Error] for any
      other.  Every negotiated connection speaks {!version}, so the body
      grammar does not depend on [version]. *)

  val encode_response : Buffer.t -> id:int -> response -> unit
  (** Append one reply frame whose body is [render_response resp]. *)

  val decode_response : op:int -> body:string -> (response, string) result
  (** [parse_response body] for the reply opcode; [Error] for any other. *)
end
