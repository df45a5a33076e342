(** Time-stepping transient simulation of lumped RC trees.

    The general-purpose companion to {!Exact}: it handles arbitrary
    input waveforms (ramps, pulse trains), at the price of
    discretization error.  Trapezoidal integration (the SPICE default)
    is second-order accurate; halving [dt] quarters the error — tested
    against {!Exact} in the suite.

    {!simulate} is a thin caller of the one stepper, {!Large.run}: it
    samples the input on its time grid and records the requested nodes
    (every node by default) into a sample-major record, which the
    abstract {!result} keeps as it is; {!waveform} and
    {!final_voltages} read from it on demand.  The
    [solver] selector is {!Large.solver}: the default [`Direct] factors
    the tree-structured iteration matrix once with the zero-fill-in
    LDLᵀ of {!Numeric.Tree_ldl} and advances every step with two O(n)
    sweeps; [`Cg] keeps the matrix-free conjugate-gradient iteration
    alive (relative residual 1e-12); [`Dense] is the dense MNA + LU
    path, kept as the oracle the sparse solvers are verified against
    (property [direct-solver]).  All three integrate the same discrete
    system, so they agree to solver roundoff. *)

type integration = Large.integration = Backward_euler | Trapezoidal

type solver = Large.solver

type result
(** The time grid plus a sample-major record of the recorded nodes'
    voltages at every sample: one contiguous row per step, the nodes
    in ascending id order, rows grouped into blocks of at most
    2{^20} floats (one row when a row alone is larger). *)

val simulate :
  ?integration:integration ->
  ?solver:solver ->
  ?cap_floor:float ->
  ?nodes:Rctree.Tree.node_id list ->
  Rctree.Tree.t ->
  dt:float ->
  t_end:float ->
  input:(float -> float) ->
  result
(** Simulates from [t = 0] with all nodes discharged, on the grid
    [t_0 = 0], [t_(k+1) = t_k +. dt] up to the first [t_k >= t_end].
    Every node is stepped; only [nodes] (default: every node, the
    input included) are recorded, each once.  A recorded node's
    samples are the same bits whatever else is recorded.
    Requirements on the tree are those of {!Mna.of_tree}.  Raises
    [Invalid_argument] for non-positive [dt], negative [t_end], an
    unknown node in [nodes] or a grid (recorded nodes) above
    {!Large.max_grid_values}. *)

val step_input : float -> float
(** The unit step: 0 for [t < 0], 1 from [t = 0] on (the 0+ value,
    which keeps trapezoidal integration second-order accurate). *)

val ramp_input : rise_time:float -> float -> float
(** 0 before [t = 0], linear to 1 over [rise_time], then 1. *)

val waveform : result -> node:Rctree.Tree.node_id -> Waveform.t
(** The node's column of the result, gathered into a fresh waveform.
    Raises [Invalid_argument] on a node that was not recorded.  The
    input node's waveform is the sampled input. *)

val nodes : result -> Rctree.Tree.node_id list
(** The recorded nodes, in ascending id order. *)

val final_voltages : result -> (Rctree.Tree.node_id * float) list
(** The last sample of every recorded node, in {!nodes} order. *)
