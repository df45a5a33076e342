(* Tests of the extension features beyond the paper's core results:
   superposition bounds for arbitrary excitation (Excitation), higher
   transfer-function moments and the two-pole model (Higher_moments),
   and the frequency-domain view (Circuit.Ac). *)

let check_close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b
let check_bool = Alcotest.(check bool)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let fig7_times = Rctree.Expr.times Rctree.Expr.fig7
let fig7_tree = Rctree.Convert.tree_of_expr Rctree.Expr.fig7

(* two-pole ladder with exactly known poles (3±sqrt5)/2 *)
let ladder2 () =
  let open Rctree.Tree.Builder in
  let b = create ~name:"ladder" () in
  let n1 = add_resistor b ~parent:(input b) ~name:"n1" 1. in
  add_capacitance b n1 1.;
  let n2 = add_resistor b ~parent:n1 ~name:"n2" 1. in
  add_capacitance b n2 1.;
  mark_output b ~label:"out" n2;
  (finish b, n1, n2)

let single_pole () =
  let open Rctree.Tree.Builder in
  let b = create ~name:"pole" () in
  let n = add_resistor b ~parent:(input b) ~name:"out" 1000. in
  add_capacitance b n 1e-9;
  mark_output b ~label:"out" n;
  (finish b, n)

(* --- Excitation -------------------------------------------------------- *)

let excitation_tests =
  let open Rctree.Excitation in
  [
    Alcotest.test_case "waveform values: step" `Quick (fun () ->
        check_close "before" 0. (value unit_step (-1.));
        check_close "after" 1. (value unit_step 0.);
        check_close "later" 1. (value unit_step 5.));
    Alcotest.test_case "waveform values: ramp" `Quick (fun () ->
        let r = ramp ~rise_time:2. in
        check_close "start" 0. (value r 0.);
        check_close "mid" 0.5 (value r 1.);
        check_close "end" 1. (value r 2.);
        check_close "after" 1. (value r 10.));
    Alcotest.test_case "waveform values: delayed step" `Quick (fun () ->
        let s = delayed_step 3. in
        check_close "before" 0. (value s 2.9);
        check_close "at" 1. (value s 3.));
    Alcotest.test_case "staircase levels" `Quick (fun () ->
        let s = staircase ~steps:4 ~rise_time:3. in
        check_close "first level" 0.25 (value s 0.);
        check_close "final" 1. (value s 3.);
        check_close "mid level" 0.5 (value s 1.0001));
    Alcotest.test_case "validation" `Quick (fun () ->
        check_invalid "empty" (fun () -> make []);
        check_invalid "start nonzero" (fun () -> make [ (0., 0.5) ]);
        check_invalid "time decreases" (fun () -> make [ (0., 0.); (1., 0.5); (0.5, 1.) ]);
        check_invalid "value decreases" (fun () -> make [ (0., 0.); (1., 0.8); (2., 0.5) ]);
        check_invalid "value above 1" (fun () -> make [ (0., 0.); (1., 1.5) ]);
        check_invalid "bad ramp" (fun () -> ramp ~rise_time:0.);
        check_invalid "negative delay" (fun () -> delayed_step (-1.)));
    Alcotest.test_case "step reduces to the paper's bounds" `Quick (fun () ->
        List.iter
          (fun t ->
            let lo, hi = response_bounds fig7_times unit_step t in
            check_close ~eps:1e-12 "lo" (Rctree.Bounds.v_min fig7_times t) lo;
            check_close ~eps:1e-12 "hi" (Rctree.Bounds.v_max fig7_times t) hi)
          [ 0.; 50.; 200.; 600. ]);
    Alcotest.test_case "step crossing reduces to delay bounds" `Quick (fun () ->
        let lo, hi = crossing_bounds fig7_times unit_step ~threshold:0.5 in
        check_close ~eps:1e-6 "lo" (Rctree.Bounds.t_min fig7_times 0.5) lo;
        check_close ~eps:1e-6 "hi" (Rctree.Bounds.t_max fig7_times 0.5) hi);
    Alcotest.test_case "delayed step shifts the window" `Quick (fun () ->
        let lo, hi = crossing_bounds fig7_times (delayed_step 100.) ~threshold:0.5 in
        check_close ~eps:1e-6 "lo" (100. +. Rctree.Bounds.t_min fig7_times 0.5) lo;
        check_close ~eps:1e-6 "hi" (100. +. Rctree.Bounds.t_max fig7_times 0.5) hi);
    Alcotest.test_case "ramp bounds bracket the simulated ramp response" `Quick (fun () ->
        let tree = Rctree.Lump.discretize ~segments:32 fig7_tree in
        let out = Rctree.Tree.output_named tree "out" in
        let rise = 200. in
        let r =
          Circuit.Transient.simulate tree ~dt:0.25 ~t_end:1200.
            ~input:(Circuit.Transient.ramp_input ~rise_time:rise)
        in
        let w = Circuit.Transient.waveform r ~node:out in
        let input = ramp ~rise_time:rise in
        List.iter
          (fun t ->
            let lo, hi = response_bounds fig7_times input t in
            let v = Circuit.Waveform.value_at w t in
            check_bool
              (Printf.sprintf "bracketed at %g" t)
              true
              (lo -. 1e-3 <= v && v <= hi +. 1e-3))
          [ 50.; 100.; 200.; 400.; 800. ]);
    Alcotest.test_case "slower input -> later certified window" `Quick (fun () ->
        let lo_step, hi_step = crossing_bounds fig7_times unit_step ~threshold:0.5 in
        let lo_ramp, hi_ramp =
          crossing_bounds fig7_times (ramp ~rise_time:400.) ~threshold:0.5
        in
        check_bool "lo later" true (lo_ramp > lo_step);
        check_bool "hi later" true (hi_ramp > hi_step));
    Alcotest.test_case "response bounds are ordered and within [0,1]" `Quick (fun () ->
        let input = ramp ~rise_time:150. in
        List.iter
          (fun t ->
            let lo, hi = response_bounds fig7_times input t in
            check_bool "ordered" true (lo <= hi +. 1e-12);
            check_bool "range" true (lo >= 0. && hi <= 1.))
          [ 0.; 75.; 150.; 400.; 2000. ]);
    Alcotest.test_case "degenerate network follows the input" `Quick (fun () ->
        let deg = Rctree.Times.make ~t_p:0. ~t_d:0. ~t_r:0. in
        let input = ramp ~rise_time:2. in
        let lo, hi = response_bounds deg input 1. in
        check_close ~eps:1e-9 "lo" 0.5 lo;
        check_close ~eps:1e-9 "hi" 0.5 hi);
    Alcotest.test_case "crossing requires a settling input" `Quick (fun () ->
        let partial = make [ (0., 0.); (1., 0.5) ] in
        check_invalid "unsettled" (fun () ->
            crossing_bounds fig7_times partial ~threshold:0.4));
  ]

(* --- Higher_moments ------------------------------------------------------ *)

let moments_tests =
  let open Rctree.Higher_moments in
  [
    Alcotest.test_case "m0 is one, m1 is Elmore" `Quick (fun () ->
        let tree, _, n2 = ladder2 () in
        let m = output_moments tree ~output:n2 ~order:2 in
        check_close "m0" 1. m.(0);
        check_close "m1" (Rctree.Moments.elmore tree ~output:n2) m.(1));
    Alcotest.test_case "ladder m2 by hand" `Quick (fun () ->
        (* m2(out) = R1 C1 m1(n1) + (R1+R2) C2 m1(n2) = 2 + 2*3 = 8 *)
        let tree, _, n2 = ladder2 () in
        let m = output_moments tree ~output:n2 ~order:2 in
        check_close "m2" 8. m.(2));
    Alcotest.test_case "moments match the eigendecomposition oracle" `Quick (fun () ->
        let tree, n1, n2 = ladder2 () in
        let ex = Circuit.Exact.of_tree tree in
        List.iter
          (fun node ->
            let m = output_moments tree ~output:node ~order:3 in
            for j = 0 to 3 do
              check_close ~eps:1e-9
                (Printf.sprintf "m%d node %d" j node)
                (Circuit.Exact.transfer_moment ex ~node j)
                m.(j)
            done)
          [ n1; n2 ]);
    Alcotest.test_case "two-pole fit recovers the exact ladder poles" `Quick (fun () ->
        let tree, _, n2 = ladder2 () in
        match fit tree ~output:n2 with
        | Two_pole { p1; p2 } ->
            let s5 = sqrt 5. in
            check_close ~eps:1e-9 "p1" (-.(3. +. s5) /. 2.) p1;
            check_close ~eps:1e-9 "p2" (-.(3. -. s5) /. 2.) p2
        | Degenerate | Single_pole _ -> Alcotest.fail "expected two real poles");
    Alcotest.test_case "single RC fits a single pole" `Quick (fun () ->
        let tree, out = single_pole () in
        match fit tree ~output:out with
        | Single_pole tau -> check_close ~eps:1e-15 "tau" 1e-6 tau
        | Degenerate | Two_pole _ -> Alcotest.fail "expected a single pole");
    Alcotest.test_case "two-pole step response is exact on the ladder" `Quick (fun () ->
        let tree, _, n2 = ladder2 () in
        let f = fit tree ~output:n2 in
        let ex = Circuit.Exact.of_tree tree in
        List.iter
          (fun t ->
            check_close ~eps:1e-9 "v" (Circuit.Exact.voltage ex ~node:n2 t) (step_response f t))
          [ 0.; 0.5; 1.; 3.; 8. ]);
    Alcotest.test_case "delay estimate beats Elmore on the ladder" `Quick (fun () ->
        let tree, _, n2 = ladder2 () in
        let exact = Circuit.Exact.delay (Circuit.Exact.of_tree tree) ~node:n2 ~threshold:0.5 in
        let two_pole = delay_estimate tree ~output:n2 ~threshold:0.5 in
        let elmore = Rctree.Moments.elmore tree ~output:n2 in
        check_bool "closer than Elmore" true
          (Float.abs (two_pole -. exact) < Float.abs (elmore -. exact));
        check_close ~eps:1e-9 "in fact exact here" exact two_pole);
    Alcotest.test_case "estimate inside the PR window" `Quick (fun () ->
        let tree, _, n2 = ladder2 () in
        let ts = Rctree.Moments.times tree ~output:n2 in
        let d = delay_estimate tree ~output:n2 ~threshold:0.5 in
        check_bool "inside" true (Rctree.Bounds.t_min ts 0.5 <= d && d <= Rctree.Bounds.t_max ts 0.5));
    Alcotest.test_case "distributed lines rejected" `Quick (fun () ->
        check_invalid "lines" (fun () -> all_moments fig7_tree ~order:2));
    Alcotest.test_case "negative order rejected" `Quick (fun () ->
        let tree, _, _ = ladder2 () in
        check_invalid "order" (fun () -> all_moments tree ~order:(-1)));
    Alcotest.test_case "moments grow with order on a real network" `Quick (fun () ->
        let tree, _, n2 = ladder2 () in
        let m = output_moments tree ~output:n2 ~order:4 in
        check_bool "m growing" true (m.(1) < m.(2) && m.(2) < m.(3) && m.(3) < m.(4)));
  ]

(* --- Ac -------------------------------------------------------------------- *)

let ac_tests =
  [
    Alcotest.test_case "single pole magnitude" `Quick (fun () ->
        let tree, out = single_pole () in
        let ac = Circuit.Ac.of_tree tree in
        let lambda = 1e6 in
        List.iter
          (fun omega ->
            let expected = 1. /. sqrt (1. +. ((omega /. lambda) ** 2.)) in
            check_close ~eps:1e-9 "mag" expected (Circuit.Ac.magnitude ac ~node:out omega))
          [ 0.; 1e5; 1e6; 1e7 ]);
    Alcotest.test_case "single pole phase" `Quick (fun () ->
        let tree, out = single_pole () in
        let ac = Circuit.Ac.of_tree tree in
        let _, phase = Circuit.Ac.response ac ~node:out 1e6 in
        check_close ~eps:1e-9 "phase" (-.Float.pi /. 4.) phase);
    Alcotest.test_case "dc gain is one" `Quick (fun () ->
        let tree, _, n2 = ladder2 () in
        let ac = Circuit.Ac.of_tree tree in
        check_close ~eps:1e-9 "gain" 1. (Circuit.Ac.dc_gain ac ~node:n2));
    Alcotest.test_case "bandwidth of a single pole is its pole" `Quick (fun () ->
        let tree, out = single_pole () in
        let ac = Circuit.Ac.of_tree tree in
        check_close ~eps:1. "w3db" 1e6 (Circuit.Ac.bandwidth_3db ac ~node:out));
    Alcotest.test_case "magnitude decreases with frequency" `Quick (fun () ->
        let tree, _, n2 = ladder2 () in
        let ac = Circuit.Ac.of_tree tree in
        let prev = ref 2. in
        List.iter
          (fun omega ->
            let m = Circuit.Ac.magnitude ac ~node:n2 omega in
            check_bool "decreasing" true (m < !prev);
            prev := m)
          [ 0.1; 1.; 10.; 100. ]);
    Alcotest.test_case "input node is flat" `Quick (fun () ->
        let tree, _, _ = ladder2 () in
        let ac = Circuit.Ac.of_tree tree in
        check_close "mag" 1. (Circuit.Ac.magnitude ac ~node:(Rctree.Tree.input tree) 1e9));
    Alcotest.test_case "longer interconnect -> lower bandwidth" `Quick (fun () ->
        (* frequency-domain version of the paper's length argument *)
        let line n =
          let expr = Tech.Pla.line_expr Tech.Process.default_4um
              (Tech.Pla.default_params Tech.Process.default_4um) ~minterms:n in
          let tree = Rctree.Lump.discretize ~segments:4 (Rctree.Convert.tree_of_expr expr) in
          let out = Rctree.Tree.output_named tree "out" in
          Circuit.Ac.bandwidth_3db (Circuit.Ac.of_tree tree) ~node:out
        in
        check_bool "bw drops" true (line 40 < line 10));
    Alcotest.test_case "bode table shape" `Quick (fun () ->
        let tree, out = single_pole () in
        let ac = Circuit.Ac.of_tree tree in
        let rows = Circuit.Ac.bode_table ac ~node:out ~omegas:[| 1e5; 1e6; 1e7 |] in
        check_bool "3 rows" true (Array.length rows = 3);
        let _, db_at_pole, deg_at_pole = rows.(1) in
        check_close ~eps:0.01 "-3dB" (-3.0103) db_at_pole;
        check_close ~eps:0.01 "-45deg" (-45.) deg_at_pole);
    Alcotest.test_case "negative frequency rejected" `Quick (fun () ->
        let tree, out = single_pole () in
        let ac = Circuit.Ac.of_tree tree in
        check_invalid "omega" (fun () -> Circuit.Ac.magnitude ac ~node:out (-1.)));
    Alcotest.test_case "phase is the principal value once the true phase passes -pi" `Quick
      (fun () ->
        (* the far end of a 4-section chain has four poles and no zero:
           H = prod l_j / (jw + l_j), whose phase -sum atan(w / l_j)
           heads for -2 pi *)
        let tree = Circuit.Large.rc_chain ~sections:4 ~r:1. ~c:1. in
        let out = Rctree.Tree.output_named tree "out" in
        let exact = Circuit.Exact.of_tree tree in
        let ac = Circuit.Ac.of_exact exact in
        let poles = Circuit.Exact.poles exact in
        let terms = Option.get (Circuit.Exact.residues exact ~node:out) in
        let wrapped = ref 0 in
        List.iter
          (fun omega ->
            let mag, phase = Circuit.Ac.response ac ~node:out omega in
            check_bool "in (-pi, pi]" true (phase > -.Float.pi && phase <= Float.pi);
            let unwrapped =
              Array.fold_left (fun acc l -> acc -. Float.atan (omega /. l)) 0. poles
            in
            if unwrapped < -.Float.pi then incr wrapped;
            let turns = Float.round ((phase -. unwrapped) /. (2. *. Float.pi)) in
            check_close ~eps:1e-9 "phase is the true phase plus whole turns" unwrapped
              (phase -. (2. *. Float.pi *. turns));
            let re = ref 0. and im = ref 0. in
            Array.iter
              (fun (k, l) ->
                let d = (l *. l) +. (omega *. omega) in
                re := !re +. (k *. l *. l /. d);
                im := !im -. (k *. l *. omega /. d))
              terms;
            check_close ~eps:1e-12 "re" !re (mag *. Float.cos phase);
            check_close ~eps:1e-12 "im" !im (mag *. Float.sin phase))
          [ 0.1; 1.; 3.; 10.; 100. ];
        check_bool "the true phase passes -pi" true (!wrapped >= 2));
  ]

(* --- Sensitivity ------------------------------------------------------------ *)

(* rebuild the ladder with one perturbed element and return its Elmore *)
let ladder_elmore ?(r1 = 1.) ?(c1 = 1.) ?(r2 = 1.) ?(c2 = 1.) () =
  let open Rctree.Tree.Builder in
  let b = create () in
  let n1 = add_resistor b ~parent:(input b) ~name:"n1" r1 in
  add_capacitance b n1 c1;
  let n2 = add_resistor b ~parent:n1 ~name:"n2" r2 in
  add_capacitance b n2 c2;
  mark_output b ~label:"out" n2;
  let t = finish b in
  Rctree.Moments.elmore t ~output:n2

let sensitivity_tests =
  let open Rctree.Sensitivity in
  [
    Alcotest.test_case "downstream capacitance" `Quick (fun () ->
        let tree, n1, n2 = ladder2 () in
        check_close "n1 subtree" 2. (downstream_capacitance tree n1);
        check_close "n2 subtree" 1. (downstream_capacitance tree n2);
        check_close "root" 2. (downstream_capacitance tree (Rctree.Tree.input tree)));
    Alcotest.test_case "dT_De/dC is the shared resistance" `Quick (fun () ->
        let tree, n1, n2 = ladder2 () in
        let g = elmore_wrt_capacitance tree ~output:n2 in
        check_close "wrt C1" 1. g.(n1);
        check_close "wrt C2" 2. g.(n2));
    Alcotest.test_case "dT_De/dR is the downstream capacitance on the path" `Quick (fun () ->
        let tree, n1, n2 = ladder2 () in
        let g = elmore_wrt_resistance tree ~output:n2 in
        check_close "wrt R1" 2. g.(n1);
        check_close "wrt R2" 1. g.(n2));
    Alcotest.test_case "off-path resistance has zero Elmore sensitivity" `Quick (fun () ->
        let open Rctree.Tree.Builder in
        let b = create () in
        let a = add_resistor b ~parent:(input b) ~name:"a" 1. in
        add_capacitance b a 1.;
        let side = add_resistor b ~parent:a ~name:"side" 5. in
        add_capacitance b side 2.;
        let e = add_resistor b ~parent:a ~name:"e" 1. in
        add_capacitance b e 1.;
        mark_output b ~label:"e" e;
        let t = finish b in
        let g = elmore_wrt_resistance t ~output:e in
        check_close "side edge" 0. g.(side);
        check_bool "path edge positive" true (g.(e) > 0.));
    Alcotest.test_case "gradients match finite differences" `Quick (fun () ->
        let tree, n1, n2 = ladder2 () in
        let g_r = elmore_wrt_resistance tree ~output:n2 in
        let g_c = elmore_wrt_capacitance tree ~output:n2 in
        let h = 1e-6 in
        let base = ladder_elmore () in
        check_close ~eps:1e-5 "dR1" g_r.(n1) ((ladder_elmore ~r1:(1. +. h) () -. base) /. h);
        check_close ~eps:1e-5 "dR2" g_r.(n2) ((ladder_elmore ~r2:(1. +. h) () -. base) /. h);
        check_close ~eps:1e-5 "dC1" g_c.(n1) ((ladder_elmore ~c1:(1. +. h) () -. base) /. h);
        check_close ~eps:1e-5 "dC2" g_c.(n2) ((ladder_elmore ~c2:(1. +. h) () -. base) /. h));
    Alcotest.test_case "T_P gradients" `Quick (fun () ->
        let tree, n1, n2 = ladder2 () in
        let gc = t_p_wrt_capacitance tree in
        let gr = t_p_wrt_resistance tree in
        check_close "wrt C2 is Rkk" 2. gc.(n2);
        check_close "wrt R1 is all downstream" 2. gr.(n1));
    Alcotest.test_case "worst sensitivity picks the trunk" `Quick (fun () ->
        let tree, n1, n2 = ladder2 () in
        ignore n2;
        match worst_resistance_sensitivity tree ~output:(Rctree.Tree.output_named tree "out") with
        | Some (edge, g) ->
            Alcotest.(check int) "edge" n1 edge;
            check_close "grad" 2. g
        | None -> Alcotest.fail "expected an edge");
    Alcotest.test_case "distributed lines rejected" `Quick (fun () ->
        check_invalid "lines" (fun () ->
            elmore_wrt_capacitance fig7_tree ~output:(Rctree.Tree.output_named fig7_tree "out")));
  ]

(* --- Awe (generalized Pade reduction) --------------------------------- *)

let ladder n =
  let b = Rctree.Tree.Builder.create () in
  let at = ref (Rctree.Tree.Builder.input b) in
  for _ = 1 to n do
    let node = Rctree.Tree.Builder.add_resistor b ~parent:!at 1. in
    Rctree.Tree.Builder.add_capacitance b node 1.;
    at := node
  done;
  Rctree.Tree.Builder.mark_output b ~label:"out" !at;
  (Rctree.Tree.Builder.finish b, !at)

let awe_tests =
  let open Rctree.Awe in
  [
    Alcotest.test_case "order 2 recovers the exact ladder poles" `Quick (fun () ->
        let tree, out = ladder 2 in
        match reduce tree ~output:out ~order:2 with
        | Some m ->
            let s5 = sqrt 5. in
            check_close ~eps:1e-9 "p1" (-.(3. +. s5) /. 2.) m.poles.(0);
            check_close ~eps:1e-9 "p2" (-.(3. -. s5) /. 2.) m.poles.(1);
            check_close ~eps:1e-9 "residues sum to 1"
              1. (Array.fold_left ( +. ) 0. m.residues)
        | None -> Alcotest.fail "reduction failed");
    Alcotest.test_case "full order reproduces the exact response" `Quick (fun () ->
        let tree, out = ladder 4 in
        let ex = Circuit.Exact.of_tree tree in
        match reduce tree ~output:out ~order:4 with
        | Some m ->
            List.iter
              (fun t ->
                check_close ~eps:1e-7 "v" (Circuit.Exact.voltage ex ~node:out t)
                  (step_response m t))
              [ 0.; 1.; 5.; 20. ]
        | None -> Alcotest.fail "reduction failed");
    Alcotest.test_case "delay error shrinks with order" `Quick (fun () ->
        let tree, out = ladder 5 in
        let exact = Circuit.Exact.delay (Circuit.Exact.of_tree tree) ~node:out ~threshold:0.5 in
        let err q =
          Float.abs (delay (best_effort tree ~output:out ~order:q) ~threshold:0.5 -. exact)
        in
        check_bool "1>2" true (err 1 > err 2);
        check_bool "2>3" true (err 2 > err 3);
        check_bool "tiny at 5" true (err 5 < 1e-8));
    Alcotest.test_case "best_effort order 1 is the Elmore pole" `Quick (fun () ->
        let tree, out = ladder 3 in
        let m = best_effort tree ~output:out ~order:1 in
        Alcotest.(check int) "order" 1 (order m);
        check_close ~eps:1e-9 "pole" (-1. /. Rctree.Moments.elmore tree ~output:out) m.poles.(0));
    Alcotest.test_case "over-asking falls back gracefully" `Quick (fun () ->
        (* a 2-pole network cannot support a stable order-6 match *)
        let tree, out = ladder 2 in
        let m = best_effort tree ~output:out ~order:6 in
        check_bool "reduced order" true (order m <= 2);
        let exact = Circuit.Exact.delay (Circuit.Exact.of_tree tree) ~node:out ~threshold:0.5 in
        check_close ~eps:1e-6 "still right" exact (delay m ~threshold:0.5));
    Alcotest.test_case "reduction respects the PR window" `Quick (fun () ->
        let tree, out = ladder 6 in
        let ts = Rctree.Moments.times tree ~output:out in
        let d = delay (best_effort tree ~output:out ~order:3) ~threshold:0.5 in
        check_bool "inside" true
          (Rctree.Bounds.t_min ts 0.5 <= d && d <= Rctree.Bounds.t_max ts 0.5));
    Alcotest.test_case "step response endpoints" `Quick (fun () ->
        let tree, out = ladder 3 in
        let m = best_effort tree ~output:out ~order:3 in
        check_close ~eps:1e-9 "v(0)" 0. (step_response m 0.);
        check_bool "settles" true (step_response m 100. > 0.999));
    Alcotest.test_case "argument validation" `Quick (fun () ->
        let tree, out = ladder 2 in
        check_invalid "order" (fun () -> reduce tree ~output:out ~order:0);
        let m = best_effort tree ~output:out ~order:2 in
        check_invalid "time" (fun () -> step_response m (-1.));
        check_invalid "threshold" (fun () -> delay m ~threshold:1.));
  ]

let () =
  Alcotest.run "extensions"
    [
      ("excitation", excitation_tests);
      ("higher_moments", moments_tests);
      ("ac", ac_tests);
      ("sensitivity", sensitivity_tests);
      ("awe", awe_tests);
    ]
