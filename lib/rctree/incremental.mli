(** Incremental what-if engine over the construction algebra.

    Section IV's point is that the five-tuple of {!Twoport} summarizes
    a subtree {e completely}: nothing outside a subtree can see more
    than its tuple.  So when an edit touches one leaf, every other
    subtree's tuple is still valid — only the {e spine} from the edit
    to the root must be re-evaluated.  This module memoizes the tuple
    on every node of an {!Expr.t} and exposes persistent,
    zipper-addressed edits that cost O(depth) Twoport operations
    instead of the O(n) of a from-scratch {!Expr.eval}.

    {b Invariants} (property-tested, see [test/test_incremental.ml]):

    - {e Bit-identity}: for any edit sequence, {!times} (and the root
      tuple) equal from-scratch evaluation of the edited expression —
      not approximately, but float-for-float.  Edits re-run exactly
      the {!Twoport.urc}/{!Twoport.branch}/{!Twoport.cascade} calls a
      full evaluation would run, in the same association, and reuse
      memoized tuples that were themselves computed that way.
    - {e Persistence}: {!apply} never mutates; the new handle shares
      every untouched subtree with the old one.  Handles are therefore
      safe to query and edit from many domains concurrently — {!sweep}
      fans out over {!Parallel.Pool} with all domains reading one
      shared base handle.
    - {e Invalidation}: an edit at depth [d] re-evaluates at most the
      [d] spine nodes above it (plus the nodes it introduces or
      rescales).  [incr.nodes_reeval] / [incr.cache_hits] account for
      this; see DESIGN.md §5d.

    Subtree-wide {!Scale_r}/{!Scale_c} re-evaluate the scaled subtree
    bottom-up (cost O(subtree) + spine) to keep bit-identity.  For
    {e global} factors, {!times_scaled} instead uses the exact
    multilinearity of the tuple ({!Twoport.scale}) and costs O(1) —
    the right tool for PVT/Monte-Carlo sweeps, at the price of
    rounding-level (not bit-level) agreement with re-evaluation. *)

type step =
  | L  (** into the left (input-side) operand of a [WC] cascade *)
  | R  (** into the right operand of a [WC] cascade *)
  | B  (** into the subtree sealed by a [WB] branch *)

type path = step list
(** Address of a subtree: steps from the root, outermost first.  [[]]
    is the root. *)

type t
(** A persistent memoized view of an expression. *)

type edit =
  | Replace_leaf of { path : path; resistance : float; capacitance : float }
      (** Replace the [URC] leaf at [path] with [URC resistance
          capacitance].  The workhorse of sizing sweeps. *)
  | Scale_r of { path : path; factor : float }
      (** Multiply the resistance of every leaf under [path] by
          [factor]. *)
  | Scale_c of { path : path; factor : float }
      (** Multiply the capacitance of every leaf under [path] by
          [factor]. *)
  | Insert_buffer of { path : path; resistance : float; capacitance : float }
      (** ECO-style: drive the subtree at [path] through a buffer —
          the subtree [s] becomes [((URC r 0) WC (URC 0 c)) WC s]. *)
  | Graft of { path : path; expr : Expr.t }
      (** Append [expr] at the output port of the subtree at [path]:
          [s] becomes [s WC expr]. *)
  | Prune of { path : path }
      (** Delete the subtree at [path]; its [WC] parent collapses to
          the sibling.  The root and the only child of a [WB] branch
          cannot be pruned. *)

val of_expr : Expr.t -> t
(** Evaluate once, memoizing every node — O(n), after which edits are
    O(depth). *)

val to_expr : t -> Expr.t
(** The plain expression of the current state (for printing,
    conversion to a tree, or from-scratch cross-checks). *)

val times : t -> Times.t
(** Characteristic times at the output port — O(1), read off the
    memoized root tuple. *)

val tuple : t -> Twoport.t
(** The memoized five-tuple of the whole network — O(1). *)

val times_scaled : t -> resistance_factor:float -> capacitance_factor:float -> Times.t
(** Times of the same network with every R and C globally scaled —
    O(1) via {!Twoport.scale} (exact algebra, rounding-level agreement
    with re-evaluation).  Raises [Invalid_argument] on negative or
    non-finite factors. *)

val size : t -> int
(** Number of [URC] leaves. *)

val depth : t -> int
(** Height of the memoized tree — the edit cost bound. *)

val apply : t -> edit -> t
(** Apply one edit, re-evaluating only the spine (see module header).
    Raises [Invalid_argument] when the path does not exist or does not
    suit the edit (see {!edit}), or on negative element values /
    non-finite factors. *)

val apply_all : t -> edit list -> t
(** [List.fold_left apply]. *)

val edit_expr : Expr.t -> edit -> Expr.t
(** The reference semantics: the same edit applied structurally to a
    plain expression.  [times (apply h e)] is bit-identical to
    [Expr.times (edit_expr (to_expr h) e)] — this is the property the
    test suite checks.  Raises like {!apply}. *)

val leaf_count : t -> int
(** Alias of {!size}. *)

val leaf_path : t -> int -> path
(** Path of the [n]-th leaf in left-to-right order, [0 <= n <
    leaf_count].  Raises [Invalid_argument] outside the range. *)

val path_to_string : path -> string
(** ["root"] for [[]], otherwise one character per step ([l]/[r]/[b]),
    e.g. ["llrb"]. *)

val path_of_string : string -> (path, string) result
(** Inverse of {!path_to_string} (case-insensitive; [""] and ["root"]
    both mean the root). *)

val sweep : t -> edit list array -> Times.t array
(** One what-if query per array element: apply the edit sequence to
    the shared base handle (queries are independent, {e not}
    cumulative) and return the resulting times.  Runs serially: a
    query re-evaluates one spine, which costs less than handing it to
    another domain. *)

val sweep_list : t -> edit list list -> Times.t list
(** {!sweep} over lists. *)

val sweep_gen : t -> n:int -> (int -> edit list) -> Times.t array
(** Generator form: query [i] is [f i].  [f] runs in the submitting
    domain (queries are generated up front), so it need not be
    thread-safe.  Raises [Invalid_argument] on negative [n]. *)
