let segments = 8

type t = {
  case : Case.t;
  times : Rctree.Times.t Lazy.t;
  moments_times : Rctree.Times.t Lazy.t;
  times_direct : Rctree.Times.t Lazy.t;
  expr_times : Rctree.Times.t Lazy.t;
  lumped : Rctree.Tree.t Lazy.t;
  lumped_output : Rctree.Tree.node_id Lazy.t;
  lumped_times : Rctree.Times.t Lazy.t;
  exact : Circuit.Exact.t Lazy.t;
}

(* what users get: the one-pass handle *)
let handle_times tree output =
  Rctree.Analysis.times (Rctree.Analysis.make tree) ~output:(`Id output)

let make (case : Case.t) =
  let tree = case.Case.tree in
  let output = case.Case.output in
  let lumped = lazy (Rctree.Lump.discretize ~segments tree) in
  let lumped_output =
    lazy
      (let name = Rctree.Tree.node_name tree output in
       match Rctree.Tree.find_node (Lazy.force lumped) name with
       | Some id -> id
       | None -> invalid_arg ("Check.Oracle: output lost in discretization: " ^ name))
  in
  {
    case;
    times = lazy (handle_times tree output);
    moments_times = lazy (Rctree.Moments.times tree ~output);
    times_direct = lazy (Rctree.Moments.times_direct tree ~output);
    expr_times = lazy (Rctree.Expr.times (Rctree.Convert.expr_of_tree tree ~output));
    lumped;
    lumped_output;
    lumped_times = lazy (handle_times (Lazy.force lumped) (Lazy.force lumped_output));
    exact = lazy (Circuit.Exact.of_tree (Lazy.force lumped));
  }

let case o = o.case
let times o = Lazy.force o.times
let moments_times o = Lazy.force o.moments_times
let times_direct o = Lazy.force o.times_direct
let expr_times o = Lazy.force o.expr_times
let lumped o = Lazy.force o.lumped
let lumped_output o = Lazy.force o.lumped_output
let lumped_times o = Lazy.force o.lumped_times
let exact o = Lazy.force o.exact
let degenerate o = Rctree.Times.is_degenerate (lumped_times o)

let registry =
  [
    ( "Analysis.times (one all-node pass, Moments.all_sums, closed-form lines)",
      "Moments.times (per-output path algebra), Moments.times_direct (textbook LCA method) and \
       Expr.times (five-tuple algebra)" );
    ( "Bounds.v_min/v_max (eqs. 8-12)",
      "Circuit.Exact eigendecomposition of the discretized network, sampled over [0, 5 T_P]" );
    ( "Bounds.t_min/t_max (eqs. 13-17)",
      "Circuit.Exact.delay threshold crossings (Brent's method on the exact response)" );
    ( "Bounds.certify (Pass/Fail/Unknown)",
      "exact crossing time vs the deadline: Pass only if the exact response meets it, Fail only \
       if it provably cannot" );
    ( "Circuit.Exact (eigendecomposition)",
      "Circuit.Transient backward-Euler ODE integration (L-stable against the stiff \
       ghost-capacitance modes), and the area identity area_above_response = T_De of the \
       lumped tree" );
    ( "Circuit.Large.run (factor-once zero-fill-in tree LDL^T, Numeric.Tree_ldl)",
      "Check.Stepper's [`Cg] matrix-free conjugate-gradient and [`Dense] MNA + LU steppers of \
       the same discrete system, backward Euler and trapezoidal" );
    ("Spice.Printer decks", "Spice.Parser + Elaborate round-trip under legal deck noise");
    ( "Incremental.apply (memoized spine re-evaluation)",
      "Incremental.edit_expr + from-scratch Expr.times, compared bit-for-bit" );
  ]
