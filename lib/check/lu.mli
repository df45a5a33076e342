(** LU decomposition with partial pivoting, and linear solves.

    The dense oracles' solver: {!Ode} factors its iteration matrix
    once and reuses it for every time step, {!Mna} solves for the DC
    point, and {!Awe} solves its Hankel and Vandermonde systems. *)

type factor
(** An LU factorization of a square matrix. *)

exception Singular of int
(** Raised when elimination finds a pivot column with no usable pivot;
    the payload is the elimination step. *)

val decompose : Matrix.t -> factor
(** [decompose a] factors the square matrix [a].
    Raises [Invalid_argument] if [a] is not square, [Singular] if it is
    (numerically) singular. *)

val solve_factored : factor -> Vector.t -> Vector.t
(** [solve_factored f b] solves [a x = b] for the matrix factored in [f]. *)

val solve : Matrix.t -> Vector.t -> Vector.t
(** One-shot [decompose] + [solve_factored]. *)

val solve_matrix : Matrix.t -> Matrix.t -> Matrix.t
(** [solve_matrix a b] solves [a x = b] column by column. *)

val inverse : Matrix.t -> Matrix.t

val determinant : Matrix.t -> float
(** Determinant via the factorization; [0.] when singular. *)
