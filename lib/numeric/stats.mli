(** Summary statistics over float samples — used by the Monte-Carlo
    summaries and the experiment reports. *)

val mean : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance; [0.] for arrays of length < 2. *)

val stddev : float array -> float

val min : float array -> float

val max : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation
    between order statistics.  Does not mutate its input. *)

val median : float array -> float

val geometric_mean : float array -> float
(** Raises [Invalid_argument] when a sample is non-positive. *)

val linear_fit : float array -> float array -> float * float
(** [linear_fit xs ys] is the least-squares [(slope, intercept)] of
    [ys ~ slope * xs + intercept].  Raises [Invalid_argument] on
    mismatched lengths or fewer than two samples. *)

val log_log_slope : float array -> float array -> float
(** Slope of [log ys] against [log xs] — the growth exponent used to
    check the quadratic dependence in the paper's Fig. 13.  All samples
    must be positive. *)
