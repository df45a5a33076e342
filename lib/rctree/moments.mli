(** Characteristic times of tree outputs (eqs. 1, 5, 6).

    {!all_sums} is the production pass: every node's times in one O(n)
    walk, run once per tree by {!Analysis.make}.  The reference
    engines for the tests and [lib/check]:

    - {!times} — one O(n) pass per output using the path arrays of
      {!Path};
    - [Check.Oracle.direct_times] — the textbook method that evaluates
      [R_ke] for every capacitor with an explicit lowest-common-ancestor
      query, O(n·depth), with a sum loop of its own.

    Distributed lines are integrated in closed form: a line of total
    resistance [R] and capacitance [C] entered at path resistance [a]
    contributes [C(a + R/2)] to the first-order sums and
    [C(a² + aR + R²/3)] to the quadratic sum when it lies on the path
    to the output, and [C·R_be] / [C·R_be²] (with [R_be] the branch
    point resistance) when it hangs off it. *)

val t_p : Tree.t -> float
(** [T_P = Σ R_kk C_k] — output-independent (eq. 5). *)

val times : Tree.t -> output:Tree.node_id -> Times.t
(** All three characteristic times for one output, O(n). *)

val elmore : Tree.t -> output:Tree.node_id -> float
(** The Elmore delay [T_De] alone (eq. 1). *)

val quadratic_sum : Tree.t -> output:Tree.node_id -> float
(** [Σ_k R_ke² C_k] — the numerator of [T_Re] before division by
    [R_ee]; exposed for tests. *)

val all_sums : Tree.t -> float * float array * float array
(** [(T_P, T_De, T_Re)] with every node as the output, the arrays
    indexed by node, in O(n) total — the "more general set of
    programs" the paper defers to its journal version.  Works by
    prefix recursion down the tree: crossing an edge of resistance [R]
    into a subtree holding capacitance [C_sub] updates the first-moment
    sum by [R·C_sub] and the quadratic sum by [2R·R_ee·C_sub +
    R²·C_sub], with closed-form corrections for the crossed edge's own
    distributed capacitance.  Eq. (7) is not checked here. *)

val sums_into :
  n:int ->
  parent:int array ->
  r:float array ->
  c:float array ->
  cl:float array ->
  rkk:float array ->
  t_d:float array ->
  t_r:float array ->
  float
(** The pass of {!all_sums} over a tree the caller lays out in flat
    arrays, for loops over many small trees that build none: nodes [0]
    to [n - 1], parents before children, [parent.(0)] unread; per node
    the series resistance [r] of the edge above it, its lumped
    capacitance [c], and [cl], the capacitance of that edge when it is
    a distributed line ([0.] at the input and on a resistor edge).
    Writes [R_kk], [T_De] and [T_Re] into the first [n] cells of [rkk],
    [t_d] and [t_r] and returns [T_P]; allocates nothing.  {!all_sums}
    is this pass on {!Tree.flat}. *)

val all_times : Tree.t -> Times.t array
(** {!all_sums} through {!Times.make}, one entry per node.  Agrees
    with {!times} to rounding (property-tested). *)
