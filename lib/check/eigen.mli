(** Eigendecomposition of real symmetric matrices (cyclic Jacobi).

    Used by the residue-form oracle {!Exact}: the state matrix
    of an RC tree, symmetrized by the capacitance scaling
    [C^{-1/2} G C^{-1/2}], is real symmetric positive definite, so the
    Jacobi method converges quadratically and is plenty fast for the
    network sizes this project simulates. *)

type decomposition = {
  eigenvalues : Vector.t;  (** ascending order *)
  eigenvectors : Matrix.t;  (** column [j] is the eigenvector for eigenvalue [j] *)
  sweeps : int;  (** Jacobi sweeps it took to converge *)
}

val symmetric : ?max_sweeps:int -> ?tol:float -> Matrix.t -> decomposition
(** [symmetric a] decomposes the symmetric matrix [a] as
    [a = V diag(lambda) V^T] with orthonormal [V].
    Only the upper triangle of [a] is read.
    Raises [Invalid_argument] if [a] is not square, [Failure] if the
    sweep limit (default 64) is exhausted before the off-diagonal mass
    drops below [tol] (default [1e-14] relative). *)

val reconstruct : decomposition -> Matrix.t
(** [reconstruct d] is [V diag(lambda) V^T] — for testing. *)
