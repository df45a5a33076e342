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
  exact : Exact.t Lazy.t;
}

(* A line of resistance R and capacitance C entered at path resistance a
   adds C (a + R/2) and C (a^2 + a R + R^2/3), the integrals of a + x R
   and its square over x in [0, 1], when the output lies below it; off
   the path, all of it sits at its branch point's R_ke. *)
let direct_times tree ~output =
  if output < 0 || output >= Rctree.Tree.node_count tree then
    invalid_arg "Check.Oracle.direct_times: unknown node";
  let tp = ref 0. and td = ref 0. and s2 = ref 0. in
  for k = 0 to Rctree.Tree.node_count tree - 1 do
    let rkk = Rctree.Path.resistance_to_root tree k in
    let rke = Rctree.Path.shared_resistance tree k output in
    let ck = Rctree.Tree.capacitance tree k in
    tp := !tp +. (ck *. rkk);
    td := !td +. (ck *. rke);
    s2 := !s2 +. (ck *. rke *. rke);
    match (Rctree.Tree.element tree k, Rctree.Tree.parent tree k) with
    | Some (Rctree.Element.Line { resistance = r; capacitance = c }), Some p ->
        let a = Rctree.Path.resistance_to_root tree p in
        tp := !tp +. (c *. (a +. (r /. 2.)));
        if Rctree.Path.lowest_common_ancestor tree k output = k then begin
          td := !td +. (c *. (a +. (r /. 2.)));
          s2 := !s2 +. (c *. ((a *. a) +. (a *. r) +. (r *. r /. 3.)))
        end
        else begin
          td := !td +. (c *. rke);
          s2 := !s2 +. (c *. rke *. rke)
        end
    | _ -> ()
  done;
  let ree = Rctree.Path.resistance_to_root tree output in
  Rctree.Times.make ~t_p:!tp ~t_d:!td ~t_r:(if ree = 0. then 0. else !s2 /. ree)

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
    times_direct = lazy (direct_times tree ~output);
    expr_times = lazy (Rctree.Expr.times (Rctree.Convert.expr_of_tree tree ~output));
    lumped;
    lumped_output;
    lumped_times = lazy (handle_times (Lazy.force lumped) (Lazy.force lumped_output));
    exact = lazy (Exact.of_tree (Lazy.force lumped));
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
      "Moments.times (per-output path algebra), Check.Oracle.direct_times (textbook LCA method) \
       and Expr.times (five-tuple algebra)" );
    ( "Bounds.v_min/v_max (eqs. 8-12)",
      "Check.Exact eigendecomposition of the discretized network, sampled over [0, 5 T_P]" );
    ( "Bounds.t_min/t_max (eqs. 13-17)",
      "Check.Exact.delay threshold crossings (Brent's method on the exact response)" );
    ( "Bounds.certify (Pass/Fail/Unknown)",
      "exact crossing time vs the deadline: Pass only if the exact response meets it, Fail only \
       if it provably cannot" );
    ( "Circuit.Response (tree pass: Ac's H(jw), Measure's and simulate's contour step)",
      "Check.Exact residue form of the same lumped tree, capacitance-floored alike" );
    ( "Check.Exact (eigendecomposition)",
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
