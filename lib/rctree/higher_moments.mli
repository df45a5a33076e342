(** Higher-order transfer-function moments and a two-pole delay model.

    The Elmore delay is the first moment of the impulse response; the
    natural next step (historically: RICE/AWE, the successors of this
    paper) matches more moments.  Writing the input→output transfer
    function as

    {v H_e(s) = 1 - m_1 s + m_2 s² - m_3 s³ + ... v}

    the moments of an RC tree obey the recursion

    {v m_j(e) = Σ_k R_ke C_k m_{j-1}(k),     m_0 = 1 v}

    which this module evaluates for {e every} node in O(n) per order
    with the classic two-pass (subtree sums, then prefix) scheme.

    Lumped trees only — discretize distributed lines first
    ({!Lump.discretize}; π-sections preserve m_1 exactly and converge
    quickly for m_2). *)

val all_moments : Tree.t -> order:int -> float array array
(** [all_moments t ~order] is an array [m] with [m.(j).(node)] the
    j-th moment at each node, [0 <= j <= order].  [m.(0)] is all ones;
    [m.(1)] is the Elmore delay of every node.
    Raises [Invalid_argument] for negative order or a tree with
    distributed lines. *)

val output_moments : Tree.t -> output:Tree.node_id -> order:int -> float array
(** The moments of one output: [[| 1; m_1; ...; m_order |]].  Raises
    [Invalid_argument] naming the output and the order [j] when [m_j]
    overflows to an infinity or is NaN (an R·C product beyond the float
    range), as do {!fit} and {!delay_estimate}, which read [m_1] and
    [m_2]. *)

type fit =
  | Degenerate  (** no resistance–capacitance product: instant response *)
  | Single_pole of float  (** time constant [tau]; used when the
                              two-pole match has no stable real poles *)
  | Two_pole of { p1 : float; p2 : float }
      (** distinct real poles, both negative, [p1 < p2 < 0] *)

val fit : Tree.t -> output:Tree.node_id -> fit
(** Padé [0/2] match of [m_1, m_2]: [H(s) ≈ 1 / (1 + m_1 s + (m_1² -
    m_2) s²)].  Falls back to [Single_pole m_1] when the quadratic has
    complex or non-negative roots, and to the exact single pole when
    the second-order coefficient vanishes. *)

val step_response : fit -> float -> float
(** Unit step response of the fitted model; monotone, 0 at 0, → 1. *)

val delay_estimate : Tree.t -> output:Tree.node_id -> threshold:float -> float
(** Threshold crossing of the fitted model — a sharper point estimate
    than Elmore, still certified only by the PR window around it.
    Raises [Invalid_argument] unless [0 <= threshold < 1]. *)

val pp_fit : Format.formatter -> fit -> unit
