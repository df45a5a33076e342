(** Penfield–Rubinstein delay bounds for RC tree networks — public API.

    Reproduction of P. Penfield and J. Rubinstein, "Signal Delay in RC
    Tree Networks", Caltech Conference on VLSI, January 1981.

    Quick start:
    {[
      let net = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
      let out = Rctree.Tree.output_named net "out" in
      let lo, hi = Rctree.delay_bounds net ~output:out ~threshold:0.5
    ]} *)

module Element = Element
module Times = Times
module Twoport = Twoport
module Expr = Expr
module Tree = Tree
module Path = Path
module Moments = Moments
module Bounds = Bounds
module Transition = Transition
module Excitation = Excitation
module Higher_moments = Higher_moments
module Sensitivity = Sensitivity

module Incremental = Incremental
(** Memoized what-if engine: persistent zipper-addressed edits over
    {!Expr.t} re-evaluating only the spine from the edit to the root,
    plus batch {!Incremental.sweep}s — bit-identical to
    from-scratch evaluation at every step. *)

module Convert = Convert
module Lump = Lump
module Validate = Validate
module Units = Units
module Scan = Scan

module Analysis = Analysis
(** Build-once / query-many handle: {!Analysis.make} computes the
    characteristic times of every node in one O(n) pass, then answers
    any number of per-output queries (and the [all_*] batches) by
    lookup.  The one-shot functions below are thin
    wrappers over a throwaway handle; prefer the handle whenever one
    network takes several questions. *)

val analyze : Tree.t -> output:Tree.node_id -> Times.t
(** Characteristic times [T_P], [T_De], [T_Re] of an output node. *)

val analyze_named : Tree.t -> output:string -> Times.t
(** Same, addressing the output by its label.  Raises
    [Invalid_argument] when no output carries the label. *)

val delay_bounds : Tree.t -> output:Tree.node_id -> threshold:float -> float * float
(** [(t_min, t_max)] — the response certainly crosses [threshold]
    somewhere inside this window. *)

val voltage_bounds : Tree.t -> output:Tree.node_id -> time:float -> float * float
(** [(v_min, v_max)] — the step response at [time] certainly lies in
    this interval. *)

val certify :
  Tree.t -> output:Tree.node_id -> threshold:float -> deadline:float -> Bounds.verdict
(** The paper's "fast enough?" question. *)

val elmore_delay : Tree.t -> output:Tree.node_id -> float
(** First moment of the impulse response, [T_De]. *)
