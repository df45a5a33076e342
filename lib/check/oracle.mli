(** Independent ground truth for one case, computed lazily.

    Every quantity the library answers has a second, independently
    coded source of the same number here: the fast path-algebra times
    are checked against the textbook LCA method and the five-tuple
    algebra; the analytic bounds are checked against the
    eigendecomposition of the discretized network; the
    eigendecomposition itself is checked against trapezoidal ODE
    integration.  All simulation-backed answers refer to the {e
    lumped} tree ({!segments} sections per distributed line) and to
    that tree's own characteristic times, for which the paper's
    theorems are exact. *)

type t

val segments : int
(** Sections per distributed line when discretizing for the oracle
    (8 — coarse on purpose: the bounds are checked against the lumped
    tree's own times, so no discretization error enters the
    comparison, and eigendecomposition stays cheap). *)

val make : Case.t -> t
(** Nothing is computed until a property asks. *)

val case : t -> Case.t

val times : t -> Rctree.Times.t
(** The production answer: an {!Rctree.Analysis} handle on the
    original tree (one all-node pass), queried at the output. *)

val moments_times : t -> Rctree.Times.t
(** Per-output O(n) path algebra ({!Rctree.Moments.times}) — first
    oracle for {!times}. *)

val times_direct : t -> Rctree.Times.t
(** {!direct_times} at the case's output — second oracle for {!times}. *)

val direct_times : Rctree.Tree.t -> output:Rctree.Tree.node_id -> Rctree.Times.t
(** The textbook method of Section IV's first paragraph: [R_kk] and
    [R_ke] for every capacitor by its own {!Rctree.Path} queries,
    O(n·depth), in a sum loop that shares no code with
    {!Rctree.Moments.times}.  Raises [Invalid_argument] on an unknown
    node. *)

val expr_times : t -> Rctree.Times.t
(** Via {!Rctree.Convert.expr_of_tree} and the five-tuple algebra —
    third oracle for {!times}. *)

val lumped : t -> Rctree.Tree.t
val lumped_output : t -> Rctree.Tree.node_id

val lumped_times : t -> Rctree.Times.t
(** As {!times}, on the lumped tree: what every bound property checks. *)

val exact : t -> Exact.t
(** Eigendecomposition of the lumped tree. *)

val degenerate : t -> bool
(** [t_d = 0] at the lumped output: the response is instantaneous up
    to the simulator's capacitance floor, so simulation-backed
    properties skip the case. *)

val registry : (string * string) list
(** The answer/oracle pairing, for [--list] style introspection and
    the docs: [(public answer, independent ground truth)]. *)
