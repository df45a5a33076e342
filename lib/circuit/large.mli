(** Transient simulation for large RC trees, without dense matrices —
    the one time-stepping loop of the library.

    The implicit iteration matrix [(C/dt' + G)] of an RC tree (with
    [dt' = dt] for backward Euler, [dt/2] for trapezoidal) is SPD and
    tree-structured, so it admits a perfect elimination order:
    leaf-to-root LDLᵀ factorization has {e zero} fill-in
    ({!Numeric.Tree_ldl}).  {!run} factors once per [(tree, dt)] in
    O(n) and then advances each time step with two O(n) triangular
    sweeps in preallocated buffers — no per-step allocation, no
    tolerance knob, no iteration count.  Memory stays O(n), so
    million-node nets complete a full step response without a dense
    matrix ever being formed.

    Every transient answer goes through {!run}: {!step_response} and
    {!Transient.simulate} only choose the time grid, the input samples
    and the nodes to record.  The trapezoidal step is taken in
    midpoint form: with [A = 2C/dt + G], it solves
    [A w = (2C/dt) x_n + g (u_n + u_{n+1})/2] and sets
    [x_{n+1} = 2w - x_n], which is
    [A x_{n+1} = (2C/dt - G) x_n + g (u_n + u_{n+1})] without the [G x]
    product, so a trapezoidal step costs what a backward-Euler one
    does.

    The slower steppers it is checked against live outside the
    library, in [Check.Stepper]: conjugate gradients over {!operator},
    {!apply}, {!c_over_dt} and {!source_rows} (the same right-hand
    side, a different solve), and dense MNA stamping ({!Mna}) stepped
    by LU.

    Accepts the trees {!Mna.of_tree} accepts (lumped, positive edge
    resistances), at any size: {!Mna.max_unknowns} bounds only the
    dense paths. *)

type integration = Backward_euler | Trapezoidal
(** Backward Euler is first-order and L-stable; trapezoidal (the
    SPICE default) is second-order and A-stable. *)

type operator
(** The matrix-free [(C/dt + G)] of one tree at one step size. *)

val operator : ?cap_floor:float -> Rctree.Tree.t -> dt:float -> operator
(** Every node carries at least [cap_floor] capacitance (default as in
    {!Mna.of_tree}).  Reads the tree's flat arrays ({!Rctree.Tree.flat})
    and allocates nothing per row.  Raises [Invalid_argument] on a
    non-positive [dt], distributed lines, a zero-resistance edge, or a
    node whose [1/R] or floored [C/dt] is not finite (the message
    names the node). *)

val apply : operator -> Numeric.Vector.t -> Numeric.Vector.t
(** One operator application: the matrix of the conjugate-gradient
    oracle, and a check on the dense stamping. *)

val apply_into : operator -> Numeric.Vector.t -> into:Numeric.Vector.t -> unit
(** {!apply} into a caller-owned buffer (no allocation). *)

val node_count : operator -> int
(** Unknowns (tree nodes minus the input). *)

val row : operator -> Rctree.Tree.node_id -> int
(** Matrix row of a tree node: its id minus one, so [-1] for the
    driven input (node 0).  Raises [Invalid_argument] on an unknown
    node. *)

val c_over_dt : operator -> Numeric.Vector.t
(** The [C/dt] diagonal by row — borrowed, do not mutate.  With the
    operator built at [dt/2] this is the trapezoidal [2C/dt]. *)

val source_rows : operator -> (int * float) list
(** Rows whose parent is the driven input, with the coupling
    conductance [g]: the input waveform [u] injects [g·u] there. *)

val factor : operator -> Numeric.Tree_ldl.t
(** Leaf-first zero-fill-in LDLᵀ of [(C/dt + G)], with pivots formed
    without cancellation ({!Numeric.Tree_ldl.factor_grounded}).  O(n);
    reusable across every step taken at this [(tree, dt)]. *)

val max_grid_values : int
(** The cap on a time grid: [2{^26}] (about 67 million) recorded
    values, 512 MiB of samples.  A grid's sample count
    [⌈t_end/dt⌉ + 1] times (recorded traces + 1, for the time axis)
    may not exceed it. *)

val check_grid : who:string -> dt:float -> t_end:float -> traces:int -> unit
(** [check_grid ~who ~dt ~t_end ~traces] validates a grid of about
    [t_end /. dt] steps recording [traces] waveforms before any of it
    is counted or allocated.  Raises [Invalid_argument], prefixed by
    [who], when [dt] is not positive, [t_end] is negative or NaN, or
    the grid exceeds {!max_grid_values}. *)

val run :
  ?cap_floor:float ->
  integration:integration ->
  Rctree.Tree.t ->
  dt:float ->
  u:float array ->
  record:Rctree.Tree.node_id array ->
  into:float array array ->
  unit
(** The stepper.  [u.(k)] is the input at sample [k] of a grid of
    [Array.length u] samples spaced [dt] apart; every node starts
    discharged at sample 0, and [Array.length u - 1] steps follow.

    [into] is the caller-owned, sample-major record, cut into blocks
    of whole samples.  With [m = Array.length record] and
    [s = Array.length into.(0) / m] samples per block, sample [k] of
    node [record.(j)] lands at [into.(k / s).((k mod s) * m + j)]
    ([u.(k)] for the driven input), so each step writes one contiguous
    row of [m] values.  A single block is the flat layout [k * m + j].
    A long record is better cut into blocks: one buffer past glibc's
    32 MiB mmap ceiling is mapped, zero-filled and unmapped afresh on
    every call.  Entries past the last sample are left alone.

    Results below [Float.min_float] are written as 0 by the solve, and
    trapezoidal states below [2 Float.min_float] by the [2w - x_n]
    update, so no recorded sample is subnormal and a decaying state
    reaches 0.
    Apart from setup, nothing is allocated per step.
    Raises [Invalid_argument] on an empty [u], an unknown node in
    [record], an [into] whose first block holds no whole sample or
    whose blocks hold fewer than [Array.length u] samples, or an
    operator that {!operator} rejects; the grid itself is the caller's
    to cap with {!check_grid}. *)

val step_response :
  ?cap_floor:float ->
  Rctree.Tree.t ->
  dt:float ->
  t_end:float ->
  outputs:Rctree.Tree.node_id list ->
  (Rctree.Tree.node_id * Waveform.t) list
(** Backward-Euler unit-step response on the grid [k·dt],
    [k = 0 … ⌈t_end/dt⌉], recording only the requested nodes.
    Raises [Invalid_argument] on bad [dt]/[t_end], a grid above
    {!max_grid_values} or unknown nodes. *)

val rc_chain : sections:int -> r:float -> c:float -> Rctree.Tree.t
(** A test/bench workload: a uniform chain of [sections] RC sections
    with the far end marked ["out"]. *)
