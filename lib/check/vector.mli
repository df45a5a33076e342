(** Dense floating-point vectors.

    Thin, allocation-explicit wrappers over [float array].  Only
    [fill], [axpy] and [scale_in_place] mutate an argument. *)

type t = float array

val create : int -> t
(** [create n] is a zero vector of dimension [n]. *)

val dim : t -> int

val of_list : float list -> t

val to_list : t -> float list

val fill : t -> float -> unit

val sub : t -> t -> t
(** Element-wise difference.  Raises [Invalid_argument] on dimension
    mismatch, as do {!axpy}, {!dot} and {!max_abs_diff}. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] sets [y <- a*x + y] in place. *)

val scale_in_place : float -> t -> unit

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Maximum absolute entry; [0.] for the empty vector. *)

val max_abs_diff : t -> t -> float
(** [norm_inf (sub a b)] without the intermediate allocation. *)

val sum : t -> float
