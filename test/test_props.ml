(* Property-based tests (qcheck): the library's invariants on random
   networks.

   - the linear-time two-port algebra agrees with the direct O(n^2)
     method on arbitrary tree expressions (E8);
   - eq. (7) ordering holds on arbitrary networks (E5);
   - expr <-> tree conversions preserve the characteristic times;
   - the Penfield-Rubinstein window always contains the exact
     (eigendecomposition) delay and response (E3 generalized);
   - bound functions are well-formed (ordered, monotone, in range);
   - SPICE printing round-trips.  *)

(* Generators live in Check.Gen, shared with the fuzz driver
   (rcdelay selfcheck) and test_parallel.  arb_sim_case prints as a
   replayable SPICE deck and shrinks through Check.Shrink. *)

let arb_expr = Check.Gen.arb_expr
let arb_sim_case = Check.Gen.arb_sim_case

let close ?(rtol = 1e-9) a b = Numeric.Float_cmp.approx_eq ~rtol ~atol:1e-12 a b

let times_agree ?(rtol = 1e-9) (a : Rctree.Times.t) (b : Rctree.Times.t) =
  close ~rtol a.Rctree.Times.t_p b.Rctree.Times.t_p
  && close ~rtol a.Rctree.Times.t_d b.Rctree.Times.t_d
  && close ~rtol a.Rctree.Times.t_r b.Rctree.Times.t_r

let algebra_props =
  [
    QCheck.Test.make ~count:300 ~name:"algebra equals direct moments" arb_expr (fun e ->
        let tree = Rctree.Convert.tree_of_expr e in
        let out = Rctree.Tree.output_named tree "out" in
        times_agree (Rctree.Expr.times e) (Rctree.Moments.times_direct tree ~output:out));
    QCheck.Test.make ~count:300 ~name:"fast moments equal direct moments" arb_expr (fun e ->
        let tree = Rctree.Convert.tree_of_expr e in
        let out = Rctree.Tree.output_named tree "out" in
        times_agree (Rctree.Moments.times tree ~output:out)
          (Rctree.Moments.times_direct tree ~output:out));
    QCheck.Test.make ~count:300 ~name:"eq.(7): T_R <= T_D <= T_P" arb_expr (fun e ->
        Rctree.Times.check (Rctree.Expr.times e));
    QCheck.Test.make ~count:300 ~name:"expr_of_tree round-trips the times" arb_expr (fun e ->
        let tree = Rctree.Convert.tree_of_expr e in
        let out = Rctree.Tree.output_named tree "out" in
        let e2 = Rctree.Convert.expr_of_tree tree ~output:out in
        times_agree (Rctree.Expr.times e) (Rctree.Expr.times e2));
    QCheck.Test.make ~count:300 ~name:"total capacitance preserved by conversion" arb_expr
      (fun e ->
        let tree = Rctree.Convert.tree_of_expr e in
        close (Rctree.Expr.eval e).Rctree.Twoport.c_total (Rctree.Tree.total_capacitance tree));
    QCheck.Test.make ~count:300 ~name:"cascade associativity"
      (QCheck.triple arb_expr arb_expr arb_expr)
      (fun (a, b, c) ->
        let open Rctree in
        let t1 = Twoport.cascade (Twoport.cascade (Expr.eval a) (Expr.eval b)) (Expr.eval c) in
        let t2 = Twoport.cascade (Expr.eval a) (Twoport.cascade (Expr.eval b) (Expr.eval c)) in
        Twoport.equal t1 t2);
    QCheck.Test.make ~count:300 ~name:"all_times agrees with per-output times everywhere" arb_expr
      (fun e ->
        let tree = Rctree.Convert.tree_of_expr e in
        let all = Rctree.Moments.all_times tree in
        let ok = ref true in
        Rctree.Tree.iter_nodes tree ~f:(fun id ->
            if not (times_agree ~rtol:1e-7 all.(id) (Rctree.Moments.times tree ~output:id)) then
              ok := false);
        !ok);
    QCheck.Test.make ~count:200 ~name:"pi lumping preserves the Elmore delay" arb_expr (fun e ->
        let tree = Rctree.Convert.tree_of_expr e in
        let out = Rctree.Tree.output_named tree "out" in
        let lumped = Rctree.Lump.discretize ~segments:3 tree in
        let out' = Rctree.Tree.output_named lumped "out" in
        close ~rtol:1e-6
          (Rctree.Moments.elmore tree ~output:out)
          (Rctree.Moments.elmore lumped ~output:out'));
  ]

let bounds_props =
  let thresholds = [ 0.05; 0.3; 0.5; 0.8; 0.95 ] in
  [
    QCheck.Test.make ~count:300 ~name:"t_min <= t_max at every threshold" arb_expr (fun e ->
        let ts = Rctree.Expr.times e in
        List.for_all (fun v -> Rctree.Bounds.t_min ts v <= Rctree.Bounds.t_max ts v) thresholds);
    QCheck.Test.make ~count:300 ~name:"v_min <= v_max at every time" arb_expr (fun e ->
        let ts = Rctree.Expr.times e in
        let horizon = Float.max 1. (4. *. ts.Rctree.Times.t_p) in
        List.for_all
          (fun k ->
            let t = horizon *. float_of_int k /. 8. in
            Rctree.Bounds.v_min ts t <= Rctree.Bounds.v_max ts t)
          [ 0; 1; 2; 4; 8 ]);
    QCheck.Test.make ~count:200 ~name:"voltage bounds are monotone in t" arb_expr (fun e ->
        let ts = Rctree.Expr.times e in
        let horizon = Float.max 1. (4. *. ts.Rctree.Times.t_p) in
        let samples = List.init 16 (fun k -> horizon *. float_of_int k /. 15.) in
        let rec mono f = function
          | a :: (b :: _ as rest) -> f a <= f b +. 1e-12 && mono f rest
          | [ _ ] | [] -> true
        in
        mono (Rctree.Bounds.v_min ts) samples && mono (Rctree.Bounds.v_max ts) samples);
    QCheck.Test.make ~count:200 ~name:"certify consistent with the window" arb_expr (fun e ->
        let ts = Rctree.Expr.times e in
        let lo = Rctree.Bounds.t_min ts 0.5 and hi = Rctree.Bounds.t_max ts 0.5 in
        Rctree.Bounds.equal_verdict (Rctree.Bounds.certify ts ~threshold:0.5 ~deadline:hi)
          Rctree.Bounds.Pass
        && (lo = 0.
           || Rctree.Bounds.equal_verdict
                (Rctree.Bounds.certify ts ~threshold:0.5 ~deadline:(lo /. 2.))
                Rctree.Bounds.Fail));
  ]

let simulation_props =
  [
    QCheck.Test.make ~count:60 ~name:"exact delay inside the certified window" arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let ts = Rctree.Moments.times tree ~output in
        let exact = Circuit.Measure.exact_delay tree ~output ~threshold:0.5 in
        Rctree.Bounds.t_min ts 0.5 -. 1e-9 <= exact
        && exact <= Rctree.Bounds.t_max ts 0.5 +. 1e-9);
    QCheck.Test.make ~count:60 ~name:"exact response between the voltage bounds" arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let ts = Rctree.Moments.times tree ~output in
        let horizon = Float.max 1. (3. *. ts.Rctree.Times.t_p) in
        let times = Array.init 12 (fun k -> horizon *. float_of_int k /. 11.) in
        Circuit.Measure.bounds_hold tree ~output ~times);
    QCheck.Test.make ~count:60 ~name:"area identity: Elmore = area above response" arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        close ~rtol:1e-7
          (Rctree.Moments.elmore tree ~output)
          (Circuit.Measure.elmore_by_area tree ~output));
    QCheck.Test.make ~count:40 ~name:"transient tracks the eigendecomposition" arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let ex = Circuit.Exact.of_tree tree in
        let tau = Circuit.Exact.dominant_time_constant ex in
        let r =
          Circuit.Transient.simulate tree ~dt:(tau /. 200.) ~t_end:tau
            ~input:Circuit.Transient.step_input
        in
        let w = Circuit.Transient.waveform r ~node:output in
        let t_check = tau /. 2. in
        Float.abs (Circuit.Waveform.value_at w t_check -. Circuit.Exact.voltage ex ~node:output t_check)
        < 1e-3);
  ]

let extension_props =
  [
    QCheck.Test.make ~count:60 ~name:"moment recursion matches the eigendecomposition"
      arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let ex = Circuit.Exact.of_tree tree in
        let m = Rctree.Higher_moments.output_moments tree ~output ~order:3 in
        let rec ok j =
          j > 3
          || (close ~rtol:1e-6 m.(j) (Circuit.Exact.transfer_moment ex ~node:output j) && ok (j + 1))
        in
        ok 0);
    QCheck.Test.make ~count:60 ~name:"two-pole delay estimate falls inside the PR window"
      arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let ts = Rctree.Moments.times tree ~output in
        let d = Rctree.Higher_moments.delay_estimate tree ~output ~threshold:0.5 in
        Rctree.Bounds.t_min ts 0.5 -. 1e-9 <= d && d <= Rctree.Bounds.t_max ts 0.5 +. 1e-9);
    QCheck.Test.make ~count:60 ~name:"two-pole model closer to exact than Elmore-as-delay"
      arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let exact = Circuit.Exact.delay (Circuit.Exact.of_tree tree) ~node:output ~threshold:0.5 in
        let two_pole = Rctree.Higher_moments.delay_estimate tree ~output ~threshold:0.5 in
        let elmore = Rctree.Moments.elmore tree ~output in
        Float.abs (two_pole -. exact) <= Float.abs (elmore -. exact) +. 1e-9);
    QCheck.Test.make ~count:40 ~name:"ramp response bounds bracket the simulated ramp"
      arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let ts = Rctree.Moments.times tree ~output in
        let rise = Float.max 0.5 ts.Rctree.Times.t_d in
        let input = Rctree.Excitation.ramp ~rise_time:rise in
        let ex = Circuit.Exact.of_tree tree in
        let tau = Circuit.Exact.dominant_time_constant ex in
        let r =
          Circuit.Transient.simulate tree
            ~dt:(Float.min (rise /. 50.) (tau /. 50.))
            ~t_end:(rise +. (3. *. Float.max tau 1e-3))
            ~input:(Circuit.Transient.ramp_input ~rise_time:rise)
        in
        let w = Circuit.Transient.waveform r ~node:output in
        List.for_all
          (fun k ->
            let t = (rise +. (3. *. tau)) *. float_of_int k /. 6. in
            let lo, hi = Rctree.Excitation.response_bounds ts input t in
            let v = Circuit.Waveform.value_at w t in
            lo -. 2e-3 <= v && v <= hi +. 2e-3)
          [ 1; 2; 3; 4; 5 ]);
    QCheck.Test.make ~count:60 ~name:"dc gain is 1 and magnitude never exceeds it"
      arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let ac = Circuit.Ac.of_tree tree in
        close ~rtol:1e-9 1. (Circuit.Ac.dc_gain ac ~node:output)
        && List.for_all
             (fun omega -> Circuit.Ac.magnitude ac ~node:output omega <= 1. +. 1e-9)
             [ 0.01; 1.; 100. ]);
  ]

let decorate_deck = Check.Gen.decorate_deck

let spice_props =
  [
    QCheck.Test.make ~count:100 ~name:"parser survives formatting noise" arb_expr (fun e ->
        let tree = Rctree.Convert.tree_of_expr e in
        let out = Rctree.Tree.output_named tree "out" in
        let st = Random.State.make [| Hashtbl.hash (Rctree.Expr.to_string e) |] in
        let noisy = decorate_deck st (Spice.Printer.to_string tree) in
        match Spice.Parser.parse_string noisy with
        | Error _ -> false
        | Ok deck -> (
            match Spice.Elaborate.to_tree deck with
            | Error _ -> false
            | Ok tree2 -> (
                match Rctree.Tree.outputs tree2 with
                | [ (_, out2) ] ->
                    times_agree ~rtol:1e-9
                      (Rctree.Moments.times tree ~output:out)
                      (Rctree.Moments.times tree2 ~output:out2)
                | _ -> false)));
    QCheck.Test.make ~count:150 ~name:"deck round-trip preserves the times" arb_expr (fun e ->
        let tree = Rctree.Convert.tree_of_expr e in
        let out = Rctree.Tree.output_named tree "out" in
        let text = Spice.Printer.to_string tree in
        match Spice.Parser.parse_string text with
        | Error _ -> false
        | Ok deck -> (
            match Spice.Elaborate.to_tree deck with
            | Error _ -> false
            | Ok tree2 ->
                (* deck outputs are labelled by node name, not by the
                   original output label *)
                let out2 =
                  match Rctree.Tree.outputs tree2 with
                  | [ (_, id) ] -> id
                  | _ -> -1
                in
                out2 >= 0
                &&
                times_agree ~rtol:1e-9
                  (Rctree.Moments.times tree ~output:out)
                  (Rctree.Moments.times tree2 ~output:out2)));
  ]

(* prod (x - r_i), in floating point, lowest coefficient first *)
let poly_of_roots roots =
  Array.fold_left
    (fun acc r ->
      let n = Array.length acc in
      Array.init (n + 1) (fun i ->
          (if i < n then -.r *. acc.(i) else 0.) +. if i > 0 then acc.(i - 1) else 0.))
    [| 1. |] roots

(* Whether [found] (ascending) are the real roots of [poly], built by
   [poly_of_roots] from the ascending negative [roots].  The rounded
   coefficients are not those of prod (x - r_i): each is n rounded
   multiply-adds of positive terms, so it is off by at most n eps
   relative, which moves a root r by up to n eps sum |c_i| |r|^i /
   |p'(r)|, its first-order condition number.  Each root's 1e-6 bound
   is widened by twice that (unchanged, to the digits that matter, for
   well-separated roots), and two roots closer than their widened
   bounds may go missing together: the rounding can turn such a pair
   complex. *)
let roots_recovered poly roots found =
  let n = Array.length roots in
  let tol r =
    let scale = ref 0. and slope = ref 0. in
    Array.iteri
      (fun i c -> scale := !scale +. (Float.abs c *. (Float.abs r ** float_of_int i)))
      poly;
    for i = Array.length poly - 1 downto 1 do
      slope := (!slope *. r) +. (float_of_int i *. poly.(i))
    done;
    (1e-6 *. Float.max 1. (Float.abs r))
    +. (2. *. float_of_int n *. epsilon_float *. !scale /. Float.abs !slope)
  in
  let tols = Array.map tol roots in
  let close_pair i j = roots.(j) -. roots.(i) < tols.(i) +. tols.(j) in
  let may_vanish i = (i > 0 && close_pair (i - 1) i) || (i < n - 1 && close_pair i (i + 1)) in
  let rec walk i j =
    if i = n then j = Array.length found
    else if j < Array.length found && Float.abs (roots.(i) -. found.(j)) < tols.(i) then
      walk (i + 1) (j + 1)
    else may_vanish i && walk (i + 1) j
  in
  (n - Array.length found) mod 2 = 0 && walk 0 0

let misc_props =
  [
    QCheck.Test.make ~count:300 ~name:"format_si/parse_si round-trip"
      (QCheck.make
         QCheck.Gen.(
           let* mantissa = float_range 1.0 999.9 in
           let* expo = int_range (-14) 11 in
           let* sign = bool in
           return ((if sign then mantissa else -.mantissa) *. (10. ** float_of_int expo)))
         ~print:string_of_float)
      (fun x ->
        match Rctree.Units.parse_si (Rctree.Units.format_si ~digits:9 x) with
        | Some y -> close ~rtol:1e-6 x y
        | None -> false);
    QCheck.Test.make ~count:200 ~name:"real_roots recovers random real-rooted polynomials"
      (QCheck.make
         QCheck.Gen.(
           let* n = int_range 1 6 in
           list_size (return n) (float_range (-10.) (-0.01)))
         ~print:(fun roots -> String.concat "," (List.map string_of_float roots)))
      (fun roots ->
        let roots = Array.of_list (List.sort_uniq Float.compare roots) in
        let poly = poly_of_roots roots in
        roots_recovered poly roots (Numeric.Polynomial.real_roots poly));
    QCheck.Test.make ~count:30 ~name:"matrix-free simulator matches the eigendecomposition"
      arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let ex = Circuit.Exact.of_tree tree in
        let tau = Circuit.Exact.dominant_time_constant ex in
        (* backward Euler is first order: error scales with dt/tau *)
        let dt = tau /. 500. in
        let ws =
          List.assoc output
            (Circuit.Large.step_response tree ~dt ~t_end:tau ~outputs:[ output ])
        in
        let t_check = tau /. 2. in
        Float.abs
          (Circuit.Waveform.value_at ws t_check -. Circuit.Exact.voltage ex ~node:output t_check)
        < 5e-3);
    QCheck.Test.make ~count:60 ~name:"certify verdicts consistent with the exact delay"
      arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let ts = Rctree.Moments.times tree ~output in
        let exact = Circuit.Measure.exact_delay tree ~output ~threshold:0.5 in
        List.for_all
          (fun factor ->
            let deadline = exact *. factor in
            match Rctree.Bounds.certify ts ~threshold:0.5 ~deadline with
            | Rctree.Bounds.Pass -> exact <= deadline +. 1e-9
            | Rctree.Bounds.Fail -> exact > deadline -. 1e-9
            | Rctree.Bounds.Unknown -> true)
          [ 0.3; 0.8; 1.0; 1.3; 3.0 ]);
    QCheck.Test.make ~count:60 ~name:"falling bounds bracket the mirrored response"
      arb_sim_case
      (fun { Check.Case.tree; output; _ } ->
        let ts = Rctree.Moments.times tree ~output in
        let ex = Circuit.Exact.of_tree tree in
        let tau = Circuit.Exact.dominant_time_constant ex in
        List.for_all
          (fun k ->
            let t = tau *. float_of_int k /. 2. in
            let v_fall = 1. -. Circuit.Exact.voltage ex ~node:output t in
            let lo, hi = Rctree.Transition.voltage_bounds ts Rctree.Transition.Falling t in
            lo -. 1e-9 <= v_fall && v_fall <= hi +. 1e-9)
          [ 0; 1; 2; 4; 8 ]);
  ]

(* Draws on which the property failed before its expectation followed
   the rounded coefficients.  Each pinned [exact] is the rounded
   polynomial's own root set, from rational arithmetic (a sign scan and
   bisection on the exact coefficients). *)
let roots_pinned =
  let case name roots exact =
    Alcotest.test_case name `Quick (fun () ->
        let roots = Array.map Float.of_string roots in
        let poly = poly_of_roots roots in
        let found = Numeric.Polynomial.real_roots poly in
        Alcotest.(check int) "count" (Array.length exact) (Array.length found);
        Array.iteri
          (fun i e -> Alcotest.(check (float 1e-8)) (Printf.sprintf "root %d" i) e found.(i))
          exact;
        Alcotest.(check bool) "property holds" true (roots_recovered poly roots found))
  in
  [
    (* the rounding moves the pair near -6.7183 by 9.4e-5 *)
    case "rounded coefficients move a close pair"
      [|
        "-0x1.e1042db7496cap+2";
        "-0x1.adf9f98d7c6ebp+2";
        "-0x1.adf7bd8cafa51p+2";
        "-0x1.ab1d7c0fe1c9p+2";
        "-0x1.a035c80546542p+2";
        "-0x1.8b4a583aa1c2cp+2";
      |]
      [|
        -7.51588003993;
        -6.71847586593;
        -6.71815168239;
        -6.67367520538;
        -6.50328252345;
        -6.17641263785;
      |];
    (* the pair near -6.89657, 2e-7 apart, turns complex: p stays
       above 3e-11 between its would-be roots *)
    case "rounded coefficients turn a close pair complex"
      [|
        "-0x1.b9616026834e8p+2";
        "-0x1.b9615f4d4d5aap+2";
        "-0x1.71581a9545f8cp+2";
        "-0x1.3de4c273f1cafp+2";
        "-0x1.abc996b3e4ceap+1";
        "-0x1.06c1dc867d022p+1";
      |]
      [| -5.77100243165; -4.96708737681; -3.34208949837; -2.05279118125 |];
  ]

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "props"
    [
      ("algebra", to_alcotest algebra_props);
      ("bounds", to_alcotest bounds_props);
      ("simulation", to_alcotest simulation_props);
      ("extensions", to_alcotest extension_props);
      ("spice", to_alcotest spice_props);
      ("misc", to_alcotest misc_props);
      ("roots", roots_pinned);
    ]
