(** Overload-control primitives shared by the server, the client and the
    router: token buckets for fair per-connection admission, a
    success-funded retry budget, log-bucket latency histograms for the
    [STATS] quantiles, and the deadline-propagation arithmetic.

    Everything here is clock-injected ([~now] is a monotonic timestamp
    in seconds) and allocation-free on the hot path, so the qcheck
    properties can drive adversarial schedules deterministically and the
    server can consult a bucket per request without heap traffic. *)

(** Classic token bucket: capacity [burst], refilled at [rate] tokens
    per second.  One instance per client connection gives {e fair}
    admission — a greedy connection exhausts only its own bucket and can
    never consume a conforming connection's tokens.  Not thread-safe;
    the server consults each connection's bucket from the event-loop
    thread only. *)
module Token_bucket : sig
  type t

  val create : rate:float -> burst:int -> now:float -> t
  (** Starts full.  @raise Invalid_argument if [rate <= 0] or
      [burst < 1]. *)

  val take : t -> now:float -> bool
  (** Consume one token after refilling for the elapsed time; [false] =
      deny (the caller sheds with BUSY). *)

  val retry_after_s : t -> now:float -> float
  (** Time until one token will be available ([0.] if one already is) —
      the BUSY retry-after hint. *)

  val level : t -> now:float -> float
  (** Current token count (post-refill); for tests. *)
end

(** Retry budget: retries are funded by successes, so a client's retry
    traffic is capped at [ratio] of its goodput and can never multiply
    offered load during a brownout (a cluster at 0%% success rate
    receives asymptotically 0 retries).  The budget starts with [cap]
    tokens so cold-start blips still retry. *)
module Retry_budget : sig
  type t

  val create : ?ratio:float -> ?cap:float -> unit -> t
  (** Default [ratio = 0.1] (one retry per ten successes),
      [cap = 10.].  @raise Invalid_argument if [ratio < 0] or
      [cap < 1]. *)

  val on_success : t -> unit
  (** Credit [ratio] tokens (clamped to [cap]). *)

  val try_retry : t -> bool
  (** Spend one token; [false] = budget exhausted, do not retry. *)

  val level : t -> float
end

(** Log-bucket latency histogram: bucket [i] counts samples in
    [[2^i, 2^(i+1))] microseconds, so quantiles are exact to within a
    factor of two at any scale with 48 ints of state and a lock-free
    record path (safe to call from every worker thread). *)
module Histogram : sig
  type t

  val create : unit -> t

  val record : t -> seconds:float -> unit

  val count : t -> int

  val quantile_us : t -> float -> int
  (** [quantile_us t 0.99] is the lower bound (in microseconds) of the
      bucket holding the p99 sample — a stable, monotone approximation.
      [0] when empty; at least [1] otherwise. *)
end

(** Deadline propagation.  The wire carries a {e relative} remaining
    budget in milliseconds (no clock synchronisation needed); every hop
    subtracts its elapsed time, and a forwarding hop additionally
    reserves a response margin so it can still merge and answer after
    its downstream calls return.  All results are clamped to
    [[0, max_ms]] — a remaining budget can reach zero (expired) but
    never go negative or exceed 32 bits. *)
module Deadline : sig
  val max_ms : int
  (** Largest remaining budget, [0xFFFF_FFFE] ms (about 49.7 days). *)

  val clamp : int -> int

  val after_hop : ?margin_ms:int -> elapsed_ms:int -> int -> int
  (** [after_hop ~margin_ms ~elapsed_ms d] = the budget to hand
      downstream.  Negative [elapsed_ms]/[margin_ms] count as [0], so
      the result is always [<= clamp d]: propagated deadlines are
      monotonically non-increasing across hops. *)

  val of_span_s : float -> int
  (** Seconds to whole milliseconds (ceiling), clamped. *)

  val to_span_s : int -> float
end
