(** The oracle steppers: the transient answers {!Circuit.Large.run}
    gives, computed the slow ways.

    Both step the discrete system of the production stepper from a
    discharged start, backward Euler or trapezoidal, on the grid of
    {!Circuit.Transient.simulate}:

    - [`Cg] forms the production stepper's right-hand side (the
      [c_over_dt] diagonal times the state plus [g u] on the source
      rows, the trapezoidal step in midpoint form with its
      [2 Float.min_float] flush) over the public {!Circuit.Large.operator},
      {!Circuit.Large.apply}, {!Circuit.Large.c_over_dt} and
      {!Circuit.Large.source_rows}, and replaces the tree LDLᵀ solve by
      Jacobi-preconditioned conjugate gradients ({!Cg.solve}).  CG
      stops at a relative residual of 1e-12 of the right-hand side, so
      a value below about 1e-9 of the swing is not converged: it may be
      off by a factor of 2, or read 0.
    - [`Dense] stamps the dense MNA system ({!Circuit.Mna}) and steps
      it with LU ({!Ode}): O(n²) memory, O(n³) setup, and the size
      limit {!Circuit.Mna.max_unknowns}.

    Each first builds the production operator, so a tree the
    production stepper rejects is rejected with the same message. *)

type engine = [ `Cg | `Dense ]

val simulate :
  engine ->
  ?integration:Circuit.Large.integration ->
  ?nodes:Rctree.Tree.node_id list ->
  Rctree.Tree.t ->
  dt:float ->
  t_end:float ->
  input:(float -> float) ->
  (Rctree.Tree.node_id * Circuit.Waveform.t) list
(** {!Circuit.Transient.simulate} through [engine] (trapezoidal by
    default): the grid, input samples and messages of
    {!Circuit.Transient.grid}, and the waveforms of the recorded nodes
    (every node by default), in ascending id order.  Raises [Invalid_argument] on an
    unknown node, and {!Circuit.Mna.Too_large} for [`Dense] above the
    dense size limit. *)
