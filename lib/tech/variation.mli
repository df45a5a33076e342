(** Process corners and Monte-Carlo delay spreads.

    The paper's numbers are typical-process values; a fab delivers a
    distribution.  This module perturbs the physical parameters that
    feed the RC extraction — sheet resistances and oxide thicknesses —
    and reports how the certified delay window moves.  Because the
    bounds are cheap (O(n) per sample), a thousand-sample Monte Carlo
    of a net costs less than a single transient simulation. *)

type corner = { corner_name : string; process : Process.t }

val corners : ?resistance_spread:float -> ?oxide_spread:float -> Process.t -> corner list
(** [slow; typical; fast].  Slow raises every sheet resistance by
    [resistance_spread] (default 20%) and thins oxides by
    [oxide_spread] (default 10%, i.e. more capacitance); fast is the
    mirror image.  Raises [Invalid_argument] on spreads outside
    [0, 0.9]. *)

type spread = {
  mean : float;
  stddev : float;
  p5 : float;
  p50 : float;
  p95 : float;
}

val spread_of_samples : float array -> spread
(** Raises [Invalid_argument] on an empty array. *)

val monte_carlo :
  ?samples:int ->
  ?seed:int ->
  ?sigma_resistance:float ->
  ?sigma_oxide:float ->
  ?pool:Parallel.Pool.t ->
  Process.t ->
  build:(Process.t -> Rctree.Tree.t * Rctree.Tree.node_id) ->
  threshold:float ->
  spread * spread
(** [(t_min spread, t_max spread)] over Gaussian-perturbed processes
    (relative sigmas, defaults 8% resistance / 4% oxide; samples
    default 200; deterministic for a given [seed], default 42).
    Negative-going samples are clamped to 10% of nominal to keep the
    parameters physical.  [build] reconstructs the network under each
    perturbed process.  Raises [Invalid_argument] on non-positive
    samples or sigmas outside [0, 0.5].

    All random draws happen serially before any analysis, so results
    are a function of [seed] alone: runs through any [pool] (default:
    the shared {!Parallel.Pool.get}) are bit-identical to serial
    runs. *)

val sample_factors :
  samples:int ->
  seed:int ->
  sigma_resistance:float ->
  sigma_oxide:float ->
  (float * float) array
(** The [(resistance_factor, oxide_factor)] draws behind
    {!monte_carlo} and {!monte_carlo_expr}: Gaussian around 1, clamped
    at 0.1, drawn serially in a fixed order so the array is a function
    of [seed] alone.  Raises like {!monte_carlo}. *)

val monte_carlo_expr :
  ?samples:int ->
  ?seed:int ->
  ?sigma_resistance:float ->
  ?sigma_oxide:float ->
  Rctree.Expr.t ->
  threshold:float ->
  spread * spread
(** Monte Carlo over a {e fixed topology}: the same draws as
    {!monte_carlo} (identical [seed] ⇒ identical factor samples), but
    each trial is an O(1) {!Rctree.Incremental.times_scaled} on a
    shared memoized handle instead of a full rebuild — global R/C
    scaling commutes with the five-tuple algebra.  Capacitance scales
    as [1 / oxide_factor] (thinner oxide ⇒ more capacitance), matching
    {!corners}.  Use this when the network shape does not depend on
    the process; use {!monte_carlo} when [build] changes topology or
    element mix per sample. *)

val pp_spread : Format.formatter -> spread -> unit
