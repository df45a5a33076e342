(** The exact response of a lumped RC tree, one linear pass per complex
    frequency: the paper's two-port algebra (eqs. 19–28) at a point
    [s].  Bottom-up, [Y_k = s·C_k + Σ_c Y_c / (1 + R_c·Y_c)] is each
    node's downstream admittance; top-down, [H_c = H_p / (1 + R_c·Y_c)]
    from [H = 1] at the input.  O(n), no matrix, no size limit.

    {!step} inverts [H(s)/s] by the midpoint rule on the parabola of
    Trefethen, Weideman and Schmelzer (BIT 2006),
    [s(θ) = (N/t)(0.1309 − 0.1194θ² + 0.25iθ)], [N = 32], to about
    1e-11 absolute (DESIGN.md §5j).  Distributed lines must be
    discretized first. *)

type t

val conductances : who:string -> Rctree.Tree.t -> float array
(** [1/R] above each node but the input, by row (id − 1): the one edge
    rule of this module, {!Ac}, {!Measure} and {!Large.operator}.
    Raises [Invalid_argument], prefixed by [who] and naming the node,
    on [R <= 0] ("connects through zero resistance") or a non-finite
    [1/R] ("has a resistance too small for a finite 1/R"). *)

val set_conductance : who:string -> Rctree.Tree.t -> float array -> int -> unit
(** The rule of {!conductances} for one row: writes its [1/R] into the
    array, then raises as {!conductances} does, for a caller that
    fills other per-row arrays in the same loop. *)

val make : Rctree.Tree.t -> t
(** Raises [Invalid_argument] on distributed lines or an edge
    {!conductances} refuses.  No capacitance floor is applied. *)

val t_p : t -> float
(** [T_P = Σ_k R_kk C_k = Σ_j 1/λ_j], at least the dominant time
    constant: where delays and bandwidths are bracketed from. *)

val transfer : t -> node:Rctree.Tree.node_id -> Complex.t -> Complex.t
(** [H(s)] at [node] (1 at the input), by one pass.  Raises
    [Invalid_argument] on an unknown node. *)

val step : t -> nodes:Rctree.Tree.node_id array -> times:float array -> float array array
(** [(step r ~nodes ~times).(j).(k)] is the unit-step response of
    [nodes.(j)] at [times.(k)] from a discharged tree: 0 at [t = 0],
    and 1 at every time for the input.  Each positive time costs 16
    passes, shared by all [nodes].  Raises [Invalid_argument] on an
    unknown node or a negative (or NaN) time. *)
