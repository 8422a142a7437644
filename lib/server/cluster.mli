(** Primary side of journal-streaming replication: the registry of
    downstream replica streams and the durability-before-ack quorum.

    An [ADD] on the primary journals locally (1 durable copy), then —
    still under the write lock — {!replicate}s the record lock-step to
    every live peer ([RECORD] out, [ACKED] back, in sequence order) and
    acknowledges the client only when at least [quorum] copies
    (including its own) are flushed.  A peer whose transport fails or
    that times out is dropped and re-registers by re-syncing; a peer
    that answers [FENCED] holds a higher epoch, and the caller must
    demote.

    {!serve_sync} is the full primary-side handshake for an incoming
    [SYNC <epoch> <from_seq>]: refuse with [`Fenced] when the caller
    has the higher epoch, send the stream header, bulk catch-up from
    the replica's acked position ({!Store.record_for} regenerates
    records the journal no longer holds, so catch-up from an arbitrary
    seq — including 0, a snapshot transfer — always works), then
    register the peer atomically under the write lock.

    The [cluster.partition] fault point fires in {!replicate} once per
    peer (payload = peer index); an [Injected] raise models a network
    partition.

    Locking: {!replicate} {e requires} the write lock (take it with
    {!with_write} around the local add + replicate pair — the stream is
    ordered, so writes must serialize); {!serve_sync}, {!seal} and the
    accessors take it themselves. *)

type t

type peer

val create : ?quorum:int -> unit -> t
(** [quorum] (default 1) is the total number of durable copies —
    including the primary's own journal — required before an [ADD] is
    acknowledged.  Quorum 1 with no peers degenerates to the single-node
    PR-4 semantics.  @raise Invalid_argument if [quorum < 1]. *)

val quorum : t -> int

val acked_high : t -> int
(** Sequence-number high-water mark of client-acknowledged adds: every
    seq < [acked_high] reached quorum.  Drain truncates the store back
    to this mark so a snapshot never contains state no client was told
    about. *)

val set_acked_high : t -> int -> unit
(** Raise the mark (never lowers): on open (restored state is treated
    as acked) and on promotion (the chosen replica's state becomes
    canon). *)

val sealed : t -> bool

val with_write : t -> (unit -> 'a) -> 'a
(** Run [f] under the write lock.  Wrap the local {!Store.add_seq} +
    {!replicate} pair in it. *)

val live_peers : t -> string list

type outcome =
  | Acks of int  (** quorum reached with this many durable copies *)
  | No_quorum of int  (** only this many copies; the add must fail *)
  | Fenced_off of int  (** a peer holds this higher epoch: demote *)

val replicate : t -> record_for:(int -> string) -> seq:int -> outcome
(** Push every record up to [seq] to each live peer and count durable
    copies (self included).  Requires the write lock.  After {!seal},
    always [No_quorum 1]. *)

val serve_sync :
  t ->
  epoch:(unit -> int) ->
  base:(unit -> int) ->
  n_trees:(unit -> int) ->
  record_for:(int -> string) ->
  primary:(unit -> bool) ->
  peer_id:string ->
  f_epoch:int ->
  send:(string -> unit) ->
  recv:(unit -> string) ->
  close:(unit -> unit) ->
  [ `Streaming | `Fenced of int | `Refused of string ]
(** Handle a replica's [SYNC] request end to end (header, catch-up,
    registration).  Store access goes through the closures so callers
    interpose their own locking.  [`Streaming]: the transport now
    belongs to the cluster — the caller must not close it.  [`Fenced]:
    the {e requester} has the higher epoch; the caller replies
    [FENCED <epoch>] and demotes.  [`Refused]: reply [ERR reason] and
    close.  On every outcome but [`Streaming] the transport is still the
    caller's: [serve_sync] never calls [close] then, even when a
    [send]/[recv] raised. *)

val seal : t -> unit
(** Drain support: wait out any in-flight quorum write (by taking the
    write lock), then refuse future replication and close every peer
    stream.  Subsequent [ADD]s fail with an explicit error instead of
    being half-replicated. *)
