(** Dense row-major matrices of floats.

    The dense oracles' algebra ({!Mna}, {!Eigen}, {!Ode}, {!Lu}), sized
    for their networks of at most a few hundred unknowns.  Storage is a
    flat [float array] in row-major order. *)

type t

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_entry : t -> int -> int -> float -> unit
(** [add_entry m i j x] adds [x] to entry [(i, j)] — the natural
    operation when stamping circuit matrices. *)

val copy : t -> t

val of_arrays : float array array -> t
(** Raises [Invalid_argument] when the rows have unequal lengths. *)

val to_arrays : t -> float array array

val transpose : t -> t

val mul : t -> t -> t
(** Matrix product.  Raises [Invalid_argument] on shape mismatch. *)

val mul_vec : t -> Vector.t -> Vector.t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val max_abs_diff : t -> t -> float

val is_symmetric : ?tol:float -> t -> bool

val row : t -> int -> Vector.t

val col : t -> int -> Vector.t
