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
    {!final_voltages} read from it on demand.  The step factors the
    tree-structured iteration matrix once with the zero-fill-in LDLᵀ of
    {!Numeric.Tree_ldl} and advances with two O(n) sweeps.  The
    conjugate-gradient and dense MNA + LU steppers it is verified
    against (property [direct-solver]) are oracles in [Check.Stepper],
    on the same time grid ({!grid}). *)

type integration = Large.integration = Backward_euler | Trapezoidal

type result
(** The time grid plus a sample-major record of the recorded nodes'
    voltages at every sample: one contiguous row per step, the nodes
    in ascending id order, rows grouped into blocks of at most
    2{^20} floats (one row when a row alone is larger). *)

val simulate :
  ?integration:integration ->
  ?solver:[ `Direct ] ->
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
    {!Large.max_grid_values}.  [solver] has the one value [`Direct],
    accepted so that callers which name it need not change. *)

val grid :
  ?nodes:Rctree.Tree.node_id list ->
  Rctree.Tree.t ->
  dt:float ->
  t_end:float ->
  Rctree.Tree.node_id array * float array
(** The recorded nodes (ascending, each once) and the sample times of
    {!simulate} for the same arguments, with its checks, messages and
    their order: an unknown node first, then the grid
    ({!Large.check_grid}).  For a stepper that must sample and record
    exactly as {!simulate} does. *)

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
