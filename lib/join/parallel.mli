(** Multicore helpers (OCaml 5 domains).

    The paper's future work names "parallel and distributed settings
    (e.g., multi-core architectures)".  The PartSJ join runs its
    preprocessing, and its verification pipelined beside the sequential
    candidate sweep, on the persistent work-stealing pool of {!Pool};
    this module owns the shared process-wide pool instance and the
    classic fork/join {!map} built on it. *)

val pool : domains:int -> Pool.t
(** The shared process-wide pool, guaranteed to have at least [domains]
    worker slots.  Created lazily on first use, grown (replaced) when a
    caller asks for more domains, and shut down automatically at process
    exit.  Jobs that should use fewer workers than the pool holds pass
    [~width] to the {!Pool} schedulers.
    @raise Invalid_argument if [domains < 1]. *)

val map : domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f xs] is [Array.map f xs] computed on up to [domains]
    domains (including the caller's), scheduled dynamically with chunk
    stealing so uneven per-element costs do not idle fast workers.  [f]
    must be safe to run concurrently on read-only shared data — it must
    not intern labels or touch other global tables.  Two guards keep small
    or over-parallel maps from losing to [Array.map]: inputs shorter than
    a measured cutoff skip pool dispatch entirely, and the worker count
    is clamped to the hardware's recommended domain count (a pure map
    gains nothing from oversubscription).  Exceptions raised by [f] are
    re-raised.
    @raise Invalid_argument if [domains < 1]. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] — one worker per available core,
    uncapped.  The [TSJ_DOMAINS] environment variable (a positive
    integer) overrides the detected count, for container limits or
    benchmarking. *)
