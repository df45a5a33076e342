(** Conjugate gradients for symmetric positive-definite systems.

    The matrix appears only through a multiply callback, so callers can
    keep it sparse or never form it at all (the CG oracle stepper,
    {!Stepper}, applies [(C/dt + G)] straight off the tree structure).
    Optional Jacobi (diagonal) preconditioning.  An oracle: the
    production stepper solves its tree systems directly
    ({!Numeric.Tree_ldl}). *)


type stats = { iterations : int; residual_norm : float }

exception Not_converged of stats

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?diag_precondition:Vector.t ->
  mul:(Vector.t -> Vector.t) ->
  Vector.t ->
  Vector.t * stats
(** [solve ~mul b] solves [A x = b] starting from 0.  [tol] is the
    relative residual target [‖b - Ax‖ / ‖b‖] (default 1e-12);
    [max_iter] defaults to [10 × dim].  [diag_precondition] supplies
    the diagonal of [A] for Jacobi preconditioning.
    Raises [Not_converged] with the stats when the iteration stalls,
    [Invalid_argument] on a non-positive preconditioner entry. *)
