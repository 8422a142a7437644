(** Per-domain reusable scratch for the DP verification kernels.

    One arena per domain (via [Domain.DLS]); the long-lived pool workers
    of [Tsj_join.Pool] therefore each own one, and steady-state
    verification allocates no DP tables.  Buffers grow monotonically
    (doubling) and are reused without clearing — kernels must only read
    cells they wrote in the current call (the stamp protocol of
    {!Zhang_shasha}) or cells they initialize themselves. *)

type t = {
  mutable td : int array;  (** treedist values, row stride [cols] *)
  mutable td_stamp : int array;  (** call serial that wrote each td cell *)
  mutable fd : int array;  (** forest-distance table, row stride [cols] *)
  mutable rows : int;  (** allocated rows *)
  mutable cols : int;  (** allocated columns *)
  mutable serial : int;  (** bounded-call counter for the td stamps *)
  mutable rounds : int array;
      (** bounded string edit distance: furthest row per diagonal, every
          round kept *)
  mutable mate : int array;
      (** alignment certificate: the position of the second string each
          position of the first is aligned with, or [-1] *)
  mutable count_a : int array;
      (** alignment certificate: aligned positions before each position
          of the first string *)
  mutable count_b : int array;  (** the same for the second string *)
  mutable leaf_keyroot : int array;
      (** banded TED: the keyroot of T2 whose leftmost leaf is node [p],
          valid at the leaves [p] of the current call's T2 *)
  mutable window : int array;  (** banded TED: one keyroot window, sorted *)
  in_use : bool Atomic.t;  (** claimed by the thread running a kernel on it *)
}

val use : (t -> 'a) -> 'a
(** [use f] runs [f] on the calling domain's arena (created on first
    use), claimed for the duration of the call.  Systhreads of one
    domain share its arena, so a thread that finds it claimed by
    another runs [f] on a fresh private arena instead. *)

val acquire : unit -> t
(** The arena {!use} would pass, claimed: the caller must {!release} it
    on every exit path.  Lets a hot path claim the arena without
    allocating a closure. *)

val release : t -> unit

val reserve_matrices : t -> int -> int -> unit
(** [reserve_matrices a n1 n2] ensures [a.rows > n1] and [a.cols > n2].
    When the existing slabs already hold [(n1 + 1) * (n2 + 1)] cells the
    matrices are reshaped in place (the row stride changes, nothing is
    reallocated); otherwise all three slabs grow by doubling.  Either
    way previously written cells are stale — the serial counter is never
    reset, so the stamp protocol stays sound across both paths. *)

val next_serial : t -> int
(** Fresh per-call serial for the [td_stamp] protocol. *)

val reserve_rounds : t -> int -> unit
(** [reserve_rounds a n] ensures [rounds] holds at least [n] cells. *)

val reserve_alignment : t -> int -> int -> unit
(** [reserve_alignment a la lb] ensures [mate] and [count_a] hold at
    least [la] cells and [count_b] at least [lb]. *)

val reserve_keyroots : t -> int -> int -> unit
(** [reserve_keyroots a n2 w] ensures [leaf_keyroot] holds at least
    [n2] cells and [window] at least [w]. *)
