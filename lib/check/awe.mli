(** Asymptotic-waveform-style model reduction (generalized Padé), a
    reference model: no production path calls it.  The tests compare it
    with the moments recursion and the exact response, and it is the
    one user of {!Polynomial}'s root finder.

    {!Rctree.Higher_moments} matches two moments and fits two poles; this
    module does the general order-q construction that the AWE line of
    work built on top of the paper: match the first [2q] transfer
    moments with a [q]-pole model

    {v H(s) ≈ Σ_j r_j / (1 - s/p_j),    v(t) = 1 - Σ_j r_j e^{p_j t} v}

    by solving the Hankel system for the Padé denominator, extracting
    its (real, negative) roots with the interlacing root finder, and
    recovering residues from the Vandermonde moment equations.

    RC-tree transfer functions have real negative poles, so the
    construction is well-posed until numerical rank-deficiency sets in
    (the famous AWE instability); {!reduce} reports [None] in that case
    rather than returning a non-physical model, and {!best_effort}
    walks the order down until something stable emerges. *)

type model = {
  poles : float array;  (** ascending (most negative first), all < 0 *)
  residues : float array;  (** matching [poles]; sums to 1 *)
}

val reduce : Rctree.Tree.t -> output:Rctree.Tree.node_id -> order:int -> model option
(** Order-q reduction.  [None] when the Hankel system is singular, a
    pole comes out non-negative or complex, or residues are wildly
    non-physical.  Lumped trees only; [order >= 1].
    Raises [Invalid_argument] on bad arguments. *)

val best_effort : Rctree.Tree.t -> output:Rctree.Tree.node_id -> order:int -> model
(** {!reduce} at the requested order, falling back to [order-1, ...];
    order 1 (the single pole [−1/T_De]) always succeeds. *)

val step_response : model -> float -> float
(** [v(t)] of the reduced model.  Raises [Invalid_argument] for
    negative time. *)

val delay : model -> threshold:float -> float
(** Threshold crossing of the reduced model (bracketed search; the
    model may be slightly non-monotone, the first crossing is
    returned).  Raises [Invalid_argument] unless [0 <= threshold < 1]. *)

val order : model -> int
