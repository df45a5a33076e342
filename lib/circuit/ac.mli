(** Small-signal frequency response of RC trees.

    From the eigendecomposition of {!Exact} the input→node transfer
    function has the partial-fraction form

    {v H_i(s) = Σ_j k_ij λ_j / (s + λ_j) v}

    (unit DC gain, poles on the negative real axis).  This module
    evaluates it along the jω axis: magnitude, phase and the −3 dB
    bandwidth — the frequency-domain face of the same
    interconnect-speed question the paper asks in the time domain. *)

type t

val of_tree : ?cap_floor:float -> Rctree.Tree.t -> t
(** Accepts the same trees as {!Mna.of_tree}. *)

val of_exact : Exact.t -> t

val response : t -> node:Rctree.Tree.node_id -> float -> float * float
(** [response ac ~node omega] is [(magnitude, phase)] of [H(jω)];
    phase in radians, the principal value of [arg H] in (−π, π] (from
    [atan2]).  The true phase of a node behind n poles falls towards
    −π/2·n; once it passes −π the returned value is wrapped by a whole
    turn, so a deep node can read a positive phase at high frequency.
    [omega] in rad/s, non-negative.  The input node is the source:
    (1, 0) at every frequency. *)

val magnitude : t -> node:Rctree.Tree.node_id -> float -> float

val dc_gain : t -> node:Rctree.Tree.node_id -> float
(** 1 for every node of a well-formed tree (checked in tests). *)

val bandwidth_3db : t -> node:Rctree.Tree.node_id -> float
(** Smallest ω with [|H(jω)| = 1/√2], rad/s; [infinity] for the input
    node.  Found by bisection on the (monotone) magnitude. *)

val bode_table : t -> node:Rctree.Tree.node_id -> omegas:float array -> (float * float * float) array
(** [(ω, |H| in dB, phase in degrees)] rows, the phase as {!response}
    returns it. *)
