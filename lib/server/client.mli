(** Client side of the similarity-search service.

    Thin line-protocol client with the robustness conventions the server
    expects of callers: socket-level timeouts (a hung server surfaces as
    a transport error, never a hang) and retry with full-jitter
    exponential backoff whose randomness comes from an explicit
    {!Tsj_util.Prng} state and whose sleep is injectable — retry
    schedules are reproducible in tests.  {!Bin} speaks the pipelined
    binary framing after the one-line [HELLO] negotiation. *)

type t

val connect : ?timeout_s:float -> Protocol.addr -> (t, string) result
(** [timeout_s] bounds every subsequent send and receive on the
    connection (SO_SNDTIMEO/SO_RCVTIMEO). *)

val close : t -> unit

val channels : t -> in_channel * out_channel
(** The raw line channels — for callers that speak a streaming exchange
    (the replication follower) rather than request/reply. *)

val fd : t -> Unix.file_descr

val request :
  t -> ?deadline_ms:int -> Protocol.request -> (Protocol.response, string) result
(** One request/reply round trip.  [Error] means a transport or framing
    failure; protocol-level failures arrive as [Ok (Err _)] or
    [Ok (Busy _)].  [deadline_ms] announces the remaining budget for a
    work request ([@<ms>] on the wire, see {!Protocol}); ignored for
    control verbs. *)

val backoff_delay :
  base_delay_s:float -> max_delay_s:float -> rng:Tsj_util.Prng.t -> int -> float
(** [backoff_delay ~base_delay_s ~max_delay_s ~rng attempt] draws the
    full-jitter delay for the given 0-based attempt: uniform in
    [cap/2, cap] with [cap = min max_delay_s (base * 2^attempt)]. *)

val with_retries :
  ?attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?sleep:(float -> unit) ->
  ?deadline_s:float ->
  ?now:(unit -> float) ->
  ?budget:Admission.Retry_budget.t ->
  ?delay_floor:(unit -> float) ->
  rng:Tsj_util.Prng.t ->
  (unit -> ('a, string) result) ->
  ('a, string) result
(** Run [f] up to [attempts] times (default 4), sleeping a
    {!backoff_delay} between failures.  [deadline_s] caps the {e total}
    wall-clock time spent waiting between attempts: each sleep is
    clamped to the time remaining, and once the deadline passes the
    last result is returned instead of retrying further — a caller with
    a 1 s budget never sleeps through a 2 s backoff schedule.  [now]
    (default {!Tsj_util.Timer.now}) is the clock, injectable for
    deterministic tests.  A [budget] makes retries success-funded: each
    retry spends a {!Admission.Retry_budget} token (an exhausted budget
    returns the last failure immediately — retry traffic can never
    multiply offered load during a brownout) and each [Ok] credits one
    back.  [delay_floor] (default [fun () -> 0.]) is read before every
    sleep and floors that one delay — the hook by which a server's
    BUSY retry-after hint stretches the next backoff.
    @raise Invalid_argument if [attempts < 1]. *)

val request_with_retries :
  ?attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?sleep:(float -> unit) ->
  ?deadline_s:float ->
  ?now:(unit -> float) ->
  ?timeout_s:float ->
  ?budget:Admission.Retry_budget.t ->
  ?deadline_ms:int ->
  rng:Tsj_util.Prng.t ->
  Protocol.addr ->
  Protocol.request ->
  (Protocol.response, string) result
(** Connect, send, receive, close — retrying (with a fresh connection)
    on transport failures and on [BUSY].  A final [BUSY] after all
    attempts is returned as [Ok (Busy _)] (with the last hint), not
    mapped to an error: shedding is an explicit, well-formed answer.  A
    BUSY retry-after hint floors the very next backoff sleep.
    [deadline_s]/[now]/[budget] as in {!with_retries}.  [deadline_ms]
    is the {e total} remaining budget at entry: the value announced to
    the server is re-derived before each attempt (entry budget minus
    wall clock burned on earlier attempts and sleeps), so it shrinks
    monotonically across retries. *)

(** Failover across a replicated server list.  Each request starts at
    the last server that answered; a transport failure, a [FENCED]
    reply (the node lost — or never had — the write mandate), a [BUSY]
    or a drain in progress rotates to the next server with the same
    full-jitter backoff as {!with_retries}; a [REDIRECT] (bounded-
    staleness read refused by a stale replica) jumps straight to the
    named primary without backoff.  The backoff exponent grows only
    across consecutive {e transport} failures and resets as soon as a
    rotation reaches a server that answers at all (even [FENCED] or
    [BUSY]): a cluster that just recovered is probed at the base
    cadence again, not at the max-backoff cadence accumulated while it
    was down.  The final answer after all attempts is returned
    as-is. *)
module Failover : sig
  type t

  val create :
    ?attempts:int ->
    ?base_delay_s:float ->
    ?max_delay_s:float ->
    ?sleep:(float -> unit) ->
    ?deadline_s:float ->
    ?now:(unit -> float) ->
    ?timeout_s:float ->
    rng:Tsj_util.Prng.t ->
    Protocol.addr list ->
    t
  (** [attempts] (default 8) bounds total tries across the whole list;
      [deadline_s] caps each request's total backoff wait as in
      {!with_retries}.  @raise Invalid_argument on an empty list. *)

  val current : t -> Protocol.addr
  (** The server the next request will try first. *)

  val request :
    t ->
    ?deadline_ms:int ->
    Protocol.request ->
    (Protocol.response, string) result
  (** [deadline_ms] is the remaining budget at entry, re-derived before
      every attempt as in {!request_with_retries}; a BUSY retry-after
      hint floors the next rotation's backoff sleep. *)

  val add :
    ?seq_retries:int -> t -> Tsj_tree.Tree.t -> (Protocol.response, string) result
  (** The safe-retry [ADD]: learns the next sequence number from
      [STATS], sends [ADD <seq> <tree>], and retries with the {e same}
      seq across failures and failovers, so an ambiguous timeout can
      never double-apply (the idempotency contract in {!Protocol}).  A
      seq that turns out stale (competing writer, lagging replica) is
      refetched, and an [ERR quorum not reached] is retried at the same
      seq after the rotation backoff; together at most [seq_retries]
      times (default 4).  The quorum error is returned only once they
      are spent. *)
end

(** Binary-protocol client: one [HELLO BIN <v>] handshake, then
    length-prefixed frames with client-chosen request ids.  {!send} and
    {!recv} expose the pipelined half-duplex halves — many requests in
    flight, replies matched by id in completion order; {!request} is
    the lock-step convenience. *)
module Bin : sig
  type t

  val connect : ?timeout_s:float -> Protocol.addr -> (t, string) result
  (** Connect and negotiate; [Error] if the server does not speak the
      binary protocol. *)

  val close : t -> unit

  val send : t -> ?max_lag:int -> ?deadline_ms:int -> Protocol.request -> int
  (** Queue one request frame (buffered until {!flush}) and return the
      id its reply will carry.  [max_lag] turns a [Query]/[Knn] into a
      bounded-staleness read (see {!Protocol}); [deadline_ms] announces
      the remaining budget for a work request. *)

  val flush : t -> unit
  (** Push every queued frame to the socket. *)

  val recv : t -> (int * Protocol.response, string) result
  (** Read exactly one reply frame: [(id, response)], in completion
      order — not necessarily send order. *)

  val request :
    t ->
    ?max_lag:int ->
    ?deadline_ms:int ->
    Protocol.request ->
    (Protocol.response, string) result
  (** [send] + [flush] + [recv] until this request's id answers. *)
end
