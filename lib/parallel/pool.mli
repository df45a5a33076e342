(** A work-chunking pool of OCaml 5 domains for embarrassingly
    parallel batch workloads.

    Design points:

    - {e Determinism}: every combinator assigns work by index and
      writes results into index-addressed slots, so the output of
      {!map}, {!map_list} and {!map_reduce} is bit-identical whatever
      the domain count or execution interleaving — a pool of [n]
      domains is an optimization, never a semantic change.
    - {e Work chunking}: an index range is split into chunks (several
      per domain) handed out through an atomic cursor, so uneven item
      costs balance across domains without per-item synchronisation.
    - {e Exception capture}: an exception raised by a task is caught in
      the executing domain and re-raised (with its backtrace) in the
      submitting domain once the batch has drained.  When several
      chunks fail, the one covering the lowest index wins, again for
      determinism.
    - {e Re-entrancy}: calling a pool combinator from inside a pool
      task (or with a 1-domain pool) degrades to the serial path
      rather than deadlocking.
    - {e Workers live for one job}: each parallel job spawns its
      worker domains, drains alongside them and joins them before it
      returns, so no domain stays parked between jobs.  OCaml 5 stops
      every domain for each minor collection, and a parked domain
      would have to be woken for each one.  Concurrent submitters to
      one pool are serialized, so at most [domains] domains run a
      pool's job at a time.

    The shared pool {!get} is sized by [RCDELAY_JOBS] (or the
    hardware's recommended domain count when unset) and can be resized
    with {!set_default_domains} — the CLI's [--jobs] flag does exactly
    that.  Metrics: the pool reports [pool.jobs], [pool.chunks],
    [pool.tasks], [pool.worker_chunks], [pool.workers_spawned]
    counters and a [pool.domain_busy_ms] histogram through {!Obs}. *)

type t

val create : ?domains:int -> unit -> t
(** A pool running work on [domains] domains in total.  Creating it
    spawns nothing.  A job of [c] chunks spawns
    [min (domains - 1) (c - 1)] worker domains (none for
    [domains = 1], a purely serial pool); the submitting domain drains
    the job alongside them and returns once they are joined.  When the
    runtime refuses a spawn, the job runs on the domains it already
    has.  [domains] defaults to {!default_domains}.  Raises
    [Invalid_argument] when [domains < 1]. *)

val domains : t -> int
(** Total parallelism of the pool (including the submitter). *)

val shutdown : t -> unit
(** Mark the pool stopped; a job already running finishes.  No domain
    outlives its job, so there is nothing to join.  Idempotent; using
    the pool afterwards raises [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val default_domains : unit -> int
(** The size used for {!get} and [create] without [~domains]: the
    [RCDELAY_JOBS] environment variable when set to a positive
    integer, otherwise [Domain.recommended_domain_count ()]. *)

val set_default_domains : int -> unit
(** Override {!default_domains} (the CLI's [--jobs]).  If the shared
    pool already exists at a different size it is shut down and
    re-created lazily.  Raises [Invalid_argument] when [< 1]. *)

val get : unit -> t
(** The process-wide shared pool, created on first use at
    {!default_domains}.  Like any pool it holds no domain between
    jobs, so a process that has used it once pays nothing for it
    afterwards. *)

val parallel_for : ?pool:t -> ?chunk:int -> n:int -> (int -> unit) -> unit
(** Run [f 0 .. f (n-1)], partitioned into chunks of [chunk] indices
    (default: a few chunks per domain).  [f] must be safe to call
    concurrently from several domains.  [pool] defaults to {!get}. *)

val map : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], parallel over the pool; element order (and, for
    a deterministic [f], every bit of the result) matches the serial
    map. *)

val map_list : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map] through an intermediate array, preserving order. *)

val map_reduce :
  ?pool:t -> ?chunk:int -> map:('a -> 'b) -> combine:('b -> 'b -> 'b) -> init:'b -> 'a array -> 'b
(** Ordered reduction: equivalent to mapping and then folding
    [combine] left-to-right from [init] — the combine order is fixed
    by index, never by completion order, so non-associative (e.g.
    floating-point) reductions stay deterministic. *)
