(** Small-signal frequency response of RC trees.

    The input→node transfer function [H(jω)] by one tree pass per
    frequency ({!Response.transfer} at [s = jω]): each node's
    downstream admittance bottom-up, then the product of the edge
    dividers top-down.  No matrix is formed, so a tree of any size
    costs O(n) per frequency.  This module evaluates magnitude, phase
    and the −3 dB bandwidth — the frequency-domain face of the same
    interconnect-speed question the paper asks in the time domain. *)

type t

val of_tree : Rctree.Tree.t -> t
(** Accepts the same trees as {!Response.make}. *)

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
(** 1 for every node of a well-formed tree: at [s = 0] every divider
    is 1. *)

val bandwidth_3db : t -> node:Rctree.Tree.node_id -> float
(** Smallest ω with [|H(jω)| = 1/√2], rad/s; [infinity] for the input
    node and for a tree without capacitance.  Bracketed upward from
    [0.01/T_P] ({!Response.t_p}) and found by Brent's method on the
    (monotone) magnitude.  Raises [Invalid_argument] naming T_P when
    T_P is not finite, since no scan start can be formed from it. *)

val bode_table : t -> node:Rctree.Tree.node_id -> omegas:float array -> (float * float * float) array
(** [(ω, |H| in dB, phase in degrees)] rows, the phase as {!response}
    returns it. *)
