(** Piecewise-linear interpolation over sampled functions.

    Waveforms produced by the transient simulator are sampled; these
    helpers evaluate them between samples and invert monotone ones. *)

val linear : xs:Vector.t -> ys:Vector.t -> float -> float
(** [linear ~xs ~ys x] interpolates the samples [(xs.(i), ys.(i))] at
    [x].  [xs] must be strictly increasing.  Outside the sampled range
    the nearest endpoint value is returned (constant extrapolation).
    Raises [Invalid_argument] on length mismatch, fewer than one sample,
    or non-increasing [xs].  Checking [xs] costs O(n) per call; the
    lookup itself is a binary search, O(log n). *)

val linear_unchecked : xs:Vector.t -> ys:Vector.t -> float -> float
(** {!linear} without the O(n) check of its arguments: O(log n) per
    call, for samples already checked once (a sampled waveform queried
    many times).  Bit-identical to {!linear} on valid
    samples; on anything else the result is unspecified. *)

val inverse_monotone : xs:Vector.t -> ys:Vector.t -> float -> float option
(** [inverse_monotone ~xs ~ys y] finds the smallest [x] at which the
    piecewise-linear interpolant of a (weakly) increasing sample set
    reaches [y]; [None] when [y] is never reached within the samples. *)

val trapezoid : xs:Vector.t -> ys:Vector.t -> float
(** Trapezoidal integral of the samples over their full range. *)

val trapezoid_between : xs:Vector.t -> ys:Vector.t -> lo:float -> hi:float -> float
(** Trapezoidal integral of the interpolant restricted to [\[lo, hi\]]
    (clipped to the sampled range). *)
