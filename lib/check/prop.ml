type result = Pass | Fail of string

type t = { name : string; doc : string; run : Oracle.t -> result }

let failf fmt = Printf.ksprintf (fun m -> Fail m) fmt

(* --- eq. (7): T_Re <= T_De <= T_P, by every computation method ------- *)

let run_ordering o =
  let check what ts =
    if Rctree.Times.check ts then None
    else Some (failf "%s violates eq. (7): %s" what (Format.asprintf "%a" Rctree.Times.pp ts))
  in
  let candidates =
    [
      ("handle times", Oracle.times o);
      ("per-output times", Oracle.moments_times o);
      ("direct times", Oracle.times_direct o);
      ("expression times", Oracle.expr_times o);
      ("lumped times", Oracle.lumped_times o);
    ]
  in
  match List.find_map (fun (what, ts) -> check what ts) candidates with
  | Some f -> f
  | None -> Pass

(* --- the handle agrees with the three reference computations ---------- *)

let run_moments o =
  let ts = Oracle.times o in
  let agree what ts' =
    if Rctree.Times.equal ~rtol:1e-6 ts ts' then None
    else
      Some
        (failf "handle times %s disagree with %s %s"
           (Format.asprintf "%a" Rctree.Times.pp ts)
           what
           (Format.asprintf "%a" Rctree.Times.pp ts'))
  in
  match
    List.find_map Fun.id
      [
        agree "per-output path algebra" (Oracle.moments_times o);
        agree "direct method" (Oracle.times_direct o);
        agree "five-tuple algebra" (Oracle.expr_times o);
      ]
  with
  | Some f -> f
  | None ->
      if Oracle.degenerate o then Pass
      else begin
        (* Fig. 4: area above the exact response = Elmore delay *)
        let area =
          Circuit.Exact.area_above_response (Oracle.exact o) ~node:(Oracle.lumped_output o)
        in
        let t_d = (Oracle.lumped_times o).Rctree.Times.t_d in
        if Float.abs (area -. t_d) <= 1e-6 *. Float.max 1e-30 t_d then Pass
        else failf "area above exact response %.12g but Elmore delay %.12g" area t_d
      end

(* --- eqs. (8)-(12): the exact response stays inside the envelope ----- *)

let envelope_fractions = [ 0.02; 0.05; 0.1; 0.2; 0.35; 0.5; 0.75; 1.; 1.5; 2.; 3.; 5. ]

let run_envelope o =
  if Oracle.degenerate o then Pass
  else begin
    let ts = Oracle.lumped_times o in
    let ex = Oracle.exact o in
    let node = Oracle.lumped_output o in
    let tol = 1e-7 in
    let violation f =
      let t = f *. ts.Rctree.Times.t_p in
      let v = Circuit.Exact.voltage ex ~node t in
      let lo = Fault.v_min ts t and hi = Fault.v_max ts t in
      if v < lo -. tol || v > hi +. tol then
        Some (failf "exact v(%.6g) = %.9g escapes the envelope [%.9g, %.9g]" t v lo hi)
      else None
    in
    match List.find_map violation envelope_fractions with Some f -> f | None -> Pass
  end

(* --- eqs. (13)-(17): crossing times inside [t_min, t_max] ------------ *)

let run_crossing o =
  if Oracle.degenerate o then Pass
  else begin
    let ts = Oracle.lumped_times o in
    let ex = Oracle.exact o in
    let node = Oracle.lumped_output o in
    let eps = 1e-9 *. Float.max 1. ts.Rctree.Times.t_p in
    let violation v =
      let d = Circuit.Exact.delay ex ~node ~threshold:v in
      let lo = Fault.t_min ts v and hi = Fault.t_max ts v in
      if lo -. eps > d then
        Some (failf "t_min(%.2g) = %.9g exceeds the exact crossing %.9g" v lo d)
      else if d > hi +. eps then
        Some (failf "exact crossing %.9g exceeds t_max(%.2g) = %.9g" d v hi)
      else None
    in
    match List.find_map violation [ 0.1; 0.5; 0.9 ] with Some f -> f | None -> Pass
  end

(* --- certify is sound in both directions ----------------------------- *)

let run_certify o =
  if Oracle.degenerate o then Pass
  else begin
    let ts = Oracle.lumped_times o in
    let ex = Oracle.exact o in
    let node = Oracle.lumped_output o in
    let d50 = Circuit.Exact.delay ex ~node ~threshold:0.5 in
    let violation factor =
      let deadline = factor *. d50 in
      match Fault.certify ts ~threshold:0.5 ~deadline with
      | Rctree.Bounds.Pass when d50 > deadline *. (1. +. 1e-9) ->
          Some
            (failf "certify says Pass for deadline %.9g but the exact crossing is %.9g" deadline
               d50)
      | Rctree.Bounds.Fail when d50 <= deadline *. (1. -. 1e-9) ->
          Some
            (failf "certify says Fail for deadline %.9g but the exact crossing %.9g meets it"
               deadline d50)
      | _ -> None
    in
    match List.find_map violation [ 0.3; 0.8; 1.0; 1.2; 3.0 ] with Some f -> f | None -> Pass
  end

(* --- the two simulators agree ---------------------------------------- *)

let run_transient o =
  if Oracle.degenerate o then Pass
  else begin
    let ex = Oracle.exact o in
    let node = Oracle.lumped_output o in
    let tau = Circuit.Exact.dominant_time_constant ex in
    (* backward Euler, not trapezoidal: nodes without lumped capacitance
       sit on the MNA ghost-capacitance floor, whose stiff modes make
       trapezoidal integration ring at O(1e-3); BE is L-stable and damps
       them, and dt = tau/800 keeps its first-order error well inside
       the tolerance *)
    let dt = tau /. 800. in
    let res =
      Circuit.Transient.simulate ~integration:Circuit.Transient.Backward_euler
        (Oracle.lumped o) ~dt ~t_end:(3. *. tau) ~input:Circuit.Transient.step_input
    in
    let wf = Circuit.Transient.waveform res ~node in
    let violation f =
      let t = f *. tau in
      let v_ode = Circuit.Waveform.value_at wf t in
      let v_eig = Circuit.Exact.voltage ex ~node t in
      if Float.abs (v_ode -. v_eig) > 2e-3 then
        Some (failf "ODE integration %.6g vs eigendecomposition %.6g at t=%.6g" v_ode v_eig t)
      else None
    in
    match List.find_map violation [ 0.25; 0.5; 1.; 2.; 3. ] with Some f -> f | None -> Pass
  end

(* --- the three per-step linear solvers agree -------------------------- *)

let run_direct_solver o =
  if Oracle.degenerate o then Pass
  else begin
    let tree = Oracle.lumped o in
    let node = Oracle.lumped_output o in
    let tau = Circuit.Exact.dominant_time_constant (Oracle.exact o) in
    let dt = tau /. 100. and t_end = tau in
    let be_direct =
      List.assoc node (Circuit.Large.step_response tree ~dt ~t_end ~outputs:[ node ])
    in
    let be engine =
      List.assoc node
        (Stepper.simulate engine ~integration:Circuit.Transient.Backward_euler ~nodes:[ node ]
           tree ~dt ~t_end ~input:Circuit.Transient.step_input)
    in
    let trap_direct =
      let r =
        Circuit.Transient.simulate ~integration:Circuit.Transient.Trapezoidal tree ~dt ~t_end
          ~input:Circuit.Transient.step_input
      in
      Circuit.Transient.waveform r ~node
    in
    let trap_dense =
      List.assoc node
        (Stepper.simulate `Dense ~integration:Circuit.Transient.Trapezoidal ~nodes:[ node ] tree
           ~dt ~t_end ~input:Circuit.Transient.step_input)
    in
    (* direct vs dense differ by factorization roundoff (~eps * kappa);
       CG only meets its relative-residual target, so it gets slack *)
    let agree what tol wa wb =
      List.find_map
        (fun f ->
          let t = f *. tau in
          let va = Circuit.Waveform.value_at wa t and vb = Circuit.Waveform.value_at wb t in
          if Float.abs (va -. vb) > tol then
            Some
              (failf "%s: %.12g vs %.12g at t=%.6g (diff %.3g)" what va vb t
                 (Float.abs (va -. vb)))
          else None)
        [ 0.1; 0.25; 0.5; 0.75; 1. ]
    in
    match
      List.find_map Fun.id
        [
          agree "direct LDL^T vs dense LU (backward Euler)" 1e-8 be_direct (be `Dense);
          agree "direct LDL^T vs CG (backward Euler)" 1e-6 be_direct (be `Cg);
          agree "direct LDL^T vs dense LU (trapezoidal)" 1e-8 trap_direct trap_dense;
        ]
    with
    | Some f -> f
    | None -> Pass
  end

(* --- decks round-trip under legal noise ------------------------------- *)

let run_roundtrip o =
  let case = Oracle.case o in
  let text = Case.to_deck_string case in
  let st = Random.State.make [| Hashtbl.hash (case.Case.label, Case.node_count case); 0x51ce |] in
  let noisy = Gen.decorate_deck st text in
  match Case.of_deck_string ~label:"roundtrip" noisy with
  | Error m -> failf "printed deck does not parse back: %s" m
  | Ok (case', _) ->
      if case'.Case.edits <> case.Case.edits then Fail "edit script lost in deck round-trip"
      else begin
        let ts = Oracle.times o in
        let ts' = Rctree.Moments.times case'.Case.tree ~output:case'.Case.output in
        if Rctree.Times.equal ~rtol:1e-9 ts ts' then Pass
        else
          failf "times changed across print/parse: %s vs %s"
            (Format.asprintf "%a" Rctree.Times.pp ts)
            (Format.asprintf "%a" Rctree.Times.pp ts')
      end

(* --- incremental spine re-evaluation is bit-identical ----------------- *)

let translate_edit h (e : Case.edit_spec) =
  let path leaf = Rctree.Incremental.leaf_path h (leaf mod Rctree.Incremental.leaf_count h) in
  match e with
  | Case.Replace { leaf; r; c } ->
      Rctree.Incremental.Replace_leaf { path = path leaf; resistance = r; capacitance = c }
  | Case.Scale_r { leaf; factor } -> Rctree.Incremental.Scale_r { path = path leaf; factor }
  | Case.Scale_c { leaf; factor } -> Rctree.Incremental.Scale_c { path = path leaf; factor }
  | Case.Buffer { leaf; r; c } ->
      Rctree.Incremental.Insert_buffer { path = path leaf; resistance = r; capacitance = c }
  | Case.Graft { leaf; r; c } ->
      Rctree.Incremental.Graft { path = path leaf; expr = Rctree.Expr.urc r c }
  | Case.Prune { leaf } -> Rctree.Incremental.Prune { path = path leaf }

let run_incremental o =
  let case = Oracle.case o in
  let expr0 = Rctree.Convert.expr_of_tree case.Case.tree ~output:case.Case.output in
  let h0 = Rctree.Incremental.of_expr expr0 in
  if Rctree.Incremental.times h0 <> Rctree.Expr.times expr0 then
    Fail "memoized times differ from from-scratch evaluation before any edit"
  else begin
    let step acc spec =
      match acc with
      | Error _ as e -> e
      | Ok (h, expr) -> begin
          let edit = translate_edit h spec in
          let via_handle =
            try Ok (Rctree.Incremental.apply h edit) with Invalid_argument m -> Error m
          in
          let via_expr =
            try Ok (Rctree.Incremental.edit_expr expr edit) with Invalid_argument m -> Error m
          in
          match (via_handle, via_expr) with
          | Error _, Error _ -> Ok (h, expr) (* both reject: agreement, skip the edit *)
          | Ok h', Ok expr' ->
              if Rctree.Incremental.times h' = Rctree.Expr.times expr' then Ok (h', expr')
              else
                Error
                  (Printf.sprintf "edit %S: memoized times differ from from-scratch evaluation"
                     (Case.edits_to_string [ spec ]))
          | Ok _, Error m ->
              Error
                (Printf.sprintf "edit %S: apply accepted what the reference rejects (%s)"
                   (Case.edits_to_string [ spec ]) m)
          | Error m, Ok _ ->
              Error
                (Printf.sprintf "edit %S: apply rejected what the reference accepts (%s)"
                   (Case.edits_to_string [ spec ]) m)
        end
    in
    match List.fold_left step (Ok (h0, expr0)) case.Case.edits with
    | Ok _ -> Pass
    | Error m -> Fail m
  end

let all =
  [
    {
      name = "ordering";
      doc = "eq. (7): T_Re <= T_De <= T_P under every computation method";
      run = run_ordering;
    };
    {
      name = "moments-agree";
      doc = "the handle agrees with three reference times; area above the exact response is T_De";
      run = run_moments;
    };
    {
      name = "envelope";
      doc = "eqs. (8)-(12): the exact step response stays inside [v_min, v_max]";
      run = run_envelope;
    };
    {
      name = "crossing";
      doc = "eqs. (13)-(17): exact threshold crossings lie inside [t_min, t_max]";
      run = run_crossing;
    };
    {
      name = "certify-sound";
      doc = "certify answers Pass only if the exact response meets the deadline, Fail only if it \
             provably cannot";
      run = run_certify;
    };
    {
      name = "transient-vs-exact";
      doc = "time-stepping ODE integration agrees with the eigendecomposition";
      run = run_transient;
    };
    {
      name = "direct-solver";
      doc = "the factor-once tree LDL^T solver matches the CG and dense-LU oracles, backward \
             Euler and trapezoidal";
      run = run_direct_solver;
    };
    {
      name = "spice-roundtrip";
      doc = "decks round-trip through print -> decorate -> parse with identical times";
      run = run_roundtrip;
    };
    {
      name = "incremental";
      doc = "memoized spine re-evaluation is bit-identical to from-scratch evaluation";
      run = run_incremental;
    };
  ]

let names = List.map (fun p -> p.name) all
let find name = List.find_opt (fun p -> p.name = name) all
