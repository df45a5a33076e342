(** Sensitivities of the characteristic times to element values.

    For lumped trees the sums of eqs. (1) and (5) differentiate in
    closed form:

    - [∂T_De/∂C_k = R_ke] — the shared path resistance itself;
    - [∂T_De/∂R_j] (edge [j], identified by its child node) is the total
      capacitance hanging at or below edge [j] when [j] lies on the
      input→e path, and 0 otherwise;
    - [∂T_P/∂C_k = R_kk] and [∂T_P/∂R_j] is always the downstream
      capacitance.

    These gradients are what a wire-sizing or driver-sizing loop needs:
    they price every element of a net in delay per farad / per ohm.
    All functions run in O(n) and raise [Invalid_argument] on trees
    with distributed lines (discretize first) or unknown nodes. *)

val downstream_capacitance : Tree.t -> Tree.node_id -> float
(** Total lumped capacitance at the node and in its subtree. *)

val all_downstream_capacitances : Tree.t -> float array

val elmore_wrt_capacitance : Tree.t -> output:Tree.node_id -> float array
(** Per node: [∂T_De/∂C_k = R_ke]. *)

val elmore_wrt_resistance : Tree.t -> output:Tree.node_id -> float array
(** Per edge, indexed by child node (entry 0 — the input — is 0). *)

val t_p_wrt_capacitance : Tree.t -> float array
(** Per node: [R_kk]. *)

val t_p_wrt_resistance : Tree.t -> float array
