(** Sampled waveforms — the output format of the transient simulator.

    A waveform is a sequence of (time, value) samples with strictly
    increasing times; evaluation between samples is piecewise linear. *)

type t

val create : times:float array -> values:float array -> t
(** Raises [Invalid_argument] on length mismatch, fewer than one sample
    or non-increasing times.  The arrays are copied; O(n). *)

val of_samples : (float * float) list -> t

val length : t -> int

val times : t -> float array
(** A copy. *)

val values : t -> float array
(** A copy. *)

val start_time : t -> float

val end_time : t -> float

val value_at : t -> float -> float
(** Piecewise-linear, constant extrapolation outside the range.  A
    binary search, O(log n) per query: the times were checked once, by
    {!create}. *)

val final_value : t -> float

val crossing_time : t -> threshold:float -> float option
(** First time the (interpolated) waveform reaches the threshold from
    below; [None] when it never does within the samples. *)

val area_above : t -> final:float -> float
(** [∫ (final - v(t)) dt] over the sampled range — the shaded area of
    the paper's Fig. 4 when [final] is the settled value. *)

val map_values : (float -> float) -> t -> t

val resample : t -> times:float array -> t

val pp : Format.formatter -> t -> unit
