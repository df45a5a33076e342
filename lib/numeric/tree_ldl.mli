(** Zero-fill-in LDLᵀ factorization of tree-structured SPD matrices.

    An RC tree's backward-Euler iteration matrix [(C/dt + G)] couples
    each unknown only to its parent, so with nodes numbered parents
    before children ([parent i < i]) the leaf-to-root elimination
    order [n-1, …, 0] is a perfect elimination order: every eliminated
    node has exactly one remaining neighbour (its parent), so the
    Cholesky factor has the same sparsity as the tree — {e zero}
    fill-in.  Trees are chordal, which is why such an order exists at
    all.  Factoring is O(n) once; each solve is two O(n) sweeps (the
    diagonal scale rides in the first), with no tolerance knob and no
    iteration count — unlike conjugate gradients, whose iterations
    grow with chain depth on stiff nets.

    Storage is three flat [float array]s ([L] off-diagonals, [D]
    pivots, plus the caller's parent array), and {!solve_in_place}
    works entirely inside the caller's right-hand-side buffer, so a
    factor-once / step-many transient loop allocates nothing per
    step. *)

type t

val factor : parent:int array -> diag:float array -> offdiag:float array -> t
(** [factor ~parent ~diag ~offdiag] factors the n×n SPD matrix [A]
    with [A.(i).(i) = diag.(i)] and
    [A.(i).(parent.(i)) = A.(parent.(i)).(i) = offdiag.(i)] (ignored
    where [parent.(i) = -1]; several roots — a forest — are fine).
    The parent array is borrowed, not copied: it must not be mutated
    while the factorization is in use.

    Raises [Invalid_argument] on mismatched lengths, on an index
    violating [-1 <= parent.(i) < i], or when a pivot comes out
    non-positive (the matrix was not positive definite). *)

val factor_grounded :
  parent:int array -> conductance:float array -> shunt:float array -> t
(** [factor_grounded ~parent ~conductance ~shunt] factors the
    conductance matrix of a grounded tree plus a diagonal: row [i] is
    tied to [parent.(i)], or to ground at a root, through
    [conductance.(i)], and to ground through [shunt.(i)] — the
    [(C/dt + G)] of an RC tree, with [shunt] = [C/dt].  The matrix is
    the one {!factor} gets from [offdiag.(i) = -conductance.(i)] and
    [diag.(i) = shunt.(i) + conductance.(i) + Σ conductance] of its
    children, and so is the factor, up to rounding: here each pivot is
    [g + e], [e] the shunt plus each child's [g_c e_c / (g_c + e_c)],
    a sum of positive terms, where {!factor} subtracts [a²/d] from the
    assembled diagonal.  When a conductance dwarfs the capacitance
    below it that subtraction cancels, and every solve inherits the
    lost digits as a systematic error; here pivots stay accurate to a
    few ulps.  Borrows [parent] as {!factor} does; {!set_pivot_fault}
    applies.

    Raises [Invalid_argument] on mismatched lengths, on an index
    violating [-1 <= parent.(i) < i], or when a pivot comes out
    non-positive (negative or NaN values). *)

val size : t -> int

val solve_in_place : t -> float array -> unit
(** [solve_in_place t b] overwrites [b] with [A⁻¹ b] in two passes: a
    leaf-to-root forward sweep with the diagonal scale fused into it
    (the same operations in the same order as a separate [D⁻¹] pass,
    so the same bits), then one root-to-leaf back sweep.

    No output entry is subnormal: the back sweep writes [0.] for every
    result, roots included, whose magnitude is below [Float.min_float]
    (about 2.2e-308).  Only those entries change, plus entries the back
    sweep computes from a flushed one, which are themselves tiny (below
    about 1e-290): a decaying tail flushes at its first subnormal
    instead of sticking at the smallest one.  Every other entry is
    bit-identical to the unfused, unflushed three-pass solve.  No
    FTZ/DAZ mode flag is involved; the rest of the process keeps IEEE
    gradual underflow.

    Allocation-free (when metrics are disabled).  Raises
    [Invalid_argument] on a length mismatch. *)

val solve : t -> float array -> float array
(** Non-destructive {!solve_in_place} (copies [b] first). *)

val set_pivot_fault : (int * float) option -> unit
(** Fault-injection hook for the differential verifier
    ({!Check.Fault}): with [Some (i, s)] armed, every subsequent
    {!factor} scales pivot [D.(i mod n)] by [s] {e after} elimination —
    a deliberately corrupted factorization whose solves are wrong by
    O(|1-s|).  Process-wide (an atomic, so pool workers observe it);
    [None] disarms.  Never arm this outside harness self-tests. *)

val pivot_fault : unit -> (int * float) option
