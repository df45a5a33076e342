(** Compressed sparse row matrices.

    Storage for {!Cg.solve_sparse} and the oracle tests; the production
    stepper needs no general sparse matrix, since an RC tree's matrix
    has the tree as its graph ({!Numeric.Tree_ldl}).  Construction goes
    through triplets; duplicate coordinates accumulate, as produced
    naturally by stamping. *)

open Numeric

type t

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** Raises [Invalid_argument] on out-of-range coordinates or negative
    dimensions.  Duplicates are summed; explicit zeros are dropped. *)

val of_dense : Matrix.t -> t

val to_dense : t -> Matrix.t

val rows : t -> int

val cols : t -> int

val nnz : t -> int
(** Stored entries (after summing and zero-dropping). *)

val get : t -> int -> int -> float
(** O(log nnz-per-row). *)

val diagonal : t -> Vector.t
(** Raises [Invalid_argument] when not square. *)

val mul_vec : t -> Vector.t -> Vector.t

val transpose : t -> t

val scale : float -> t -> t

val add : t -> t -> t
(** Structural union; raises on shape mismatch. *)
