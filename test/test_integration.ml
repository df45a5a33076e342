(* Integration tests: flows that cross several libraries, the way a
   downstream user would chain them. *)

let check_close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_times msg (expected : Rctree.Times.t) (actual : Rctree.Times.t) =
  check_close ~eps:1e-9 (msg ^ ".t_p") expected.Rctree.Times.t_p actual.Rctree.Times.t_p;
  check_close ~eps:1e-9 (msg ^ ".t_d") expected.Rctree.Times.t_d actual.Rctree.Times.t_d;
  check_close ~eps:1e-9 (msg ^ ".t_r") expected.Rctree.Times.t_r actual.Rctree.Times.t_r

let p = Tech.Process.default_4um
let micron = 1e-6

let routed_net () =
  let poly len = Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:(len *. micron) ~width:(4. *. micron) in
  let gate = Tech.Mosfet.minimum_gate_load p in
  Tech.Route.make ~driver:Tech.Mosfet.paper_superbuffer
    [
      Tech.Route.branch
        [ poly 150. ]
        [
          Tech.Route.sink ~load:gate "near" [ poly 40. ];
          Tech.Route.sink ~load:(3. *. gate) "far" [ poly 300. ];
        ];
    ]

let tests =
  [
    Alcotest.test_case "route -> spice text -> reparse preserves the analysis" `Quick (fun () ->
        let tree = Tech.Route.to_tree p (routed_net ()) in
        let text = Spice.Printer.to_string tree in
        match Spice.Parser.parse_string text with
        | Error e -> Alcotest.failf "parse: %s" (Spice.Parser.error_to_string e)
        | Ok deck ->
            (* deck outputs carry node names, not the route's sink labels *)
            let tree2 = Result.get_ok (Spice.Elaborate.to_tree deck) in
            List.iter
              (fun label ->
                let node = Rctree.Tree.output_named tree label in
                let node_name = Rctree.Tree.node_name tree node in
                check_times label
                  (Rctree.analyze_named tree ~output:label)
                  (Rctree.analyze_named tree2 ~output:node_name))
              [ "near"; "far" ]);
    Alcotest.test_case "geometry -> bounds -> simulator agreement on a routed net" `Quick
      (fun () ->
        let tree = Tech.Route.to_tree p (routed_net ()) in
        List.iter
          (fun label ->
            let out = Rctree.Tree.output_named tree label in
            let lo, hi = Rctree.delay_bounds tree ~output:out ~threshold:0.5 in
            let exact = Circuit.Measure.exact_delay ~segments:16 tree ~output:out ~threshold:0.5 in
            check_bool (label ^ " inside") true (lo <= exact && exact <= hi))
          [ "near"; "far" ]);
    Alcotest.test_case "pla: expr, tree, deck and simulator tell one story" `Quick (fun () ->
        let expr = Tech.Pla.line_expr p (Tech.Pla.default_params p) ~minterms:10 in
        let from_expr = Rctree.Expr.times expr in
        let tree = Rctree.Convert.tree_of_expr expr in
        let out = Rctree.Tree.output_named tree "out" in
        check_times "expr vs tree" from_expr (Rctree.Moments.times tree ~output:out);
        let text = Spice.Printer.to_string tree in
        let tree2 = Result.get_ok (Spice.Elaborate.to_tree (Result.get_ok (Spice.Parser.parse_string text))) in
        let out2 = snd (List.hd (Rctree.Tree.outputs tree2)) in
        check_times "deck round-trip" from_expr (Rctree.Moments.times tree2 ~output:out2);
        let exact = Circuit.Measure.exact_delay ~segments:8 tree ~output:out ~threshold:0.7 in
        check_bool "simulator inside window" true
          (Rctree.Bounds.t_min from_expr 0.7 <= exact && exact <= Rctree.Bounds.t_max from_expr 0.7));
    Alcotest.test_case "moment pipeline: recursion, AWE, simulator agree" `Quick (fun () ->
        let expr = Tech.Pla.line_expr p (Tech.Pla.default_params p) ~minterms:6 in
        let tree = Rctree.Lump.discretize ~segments:2 (Rctree.Convert.tree_of_expr expr) in
        let out = Rctree.Tree.output_named tree "out" in
        let ex = Check.Exact.of_tree tree in
        let m = Rctree.Higher_moments.output_moments tree ~output:out ~order:3 in
        for j = 0 to 3 do
          check_bool
            (Printf.sprintf "m%d matches oracle" j)
            true
            (Numeric.Float_cmp.approx_eq ~rtol:1e-6 m.(j)
               (Check.Exact.transfer_moment ex ~node:out j))
        done;
        let model = Check.Awe.best_effort tree ~output:out ~order:3 in
        let exact = Check.Exact.delay ex ~node:out ~threshold:0.5 in
        check_bool "reduced delay within 2%" true
          (Float.abs (Check.Awe.delay model ~threshold:0.5 -. exact) /. exact < 0.02));
    Alcotest.test_case "adder: generate, write, reload, same verdicts" `Quick (fun () ->
        let lib = Sta.Celllib.default p in
        let d = Sta.Generate.ripple_carry_adder ~bits:4 () in
        let path = Filename.temp_file "adder" ".net" in
        Sta.Netlist_io.write_file path d;
        let d2 =
          match Sta.Netlist_io.parse_file lib path with
          | Ok d2 -> d2
          | Error e -> Alcotest.failf "reload: %s" (Sta.Netlist_io.error_to_string e)
        in
        Sys.remove path;
        let r = Sta.Analysis.run_exn d and r2 = Sta.Analysis.run_exn d2 in
        check_close ~eps:1e-18 "period" (Sta.Analysis.required_period r)
          (Sta.Analysis.required_period r2);
        List.iter2
          (fun (po, s) (po2, s2) ->
            Alcotest.(check string) "endpoint" po po2;
            check_close ~eps:1e-18 "slack" s s2)
          (Sta.Analysis.slack r ~period:50e-9)
          (Sta.Analysis.slack r2 ~period:50e-9));
    Alcotest.test_case "net timing equals first-principles tree timing" `Quick (fun () ->
        (* the STA net machinery must agree with building the same RC
           tree by hand *)
        let lib = Sta.Celllib.default p in
        let d = Sta.Design.create lib in
        Sta.Design.add_instance d ~cell:"inv1" "sink";
        let drv = Tech.Mosfet.paper_superbuffer in
        Sta.Design.add_net d
          ~wire:(Sta.Design.Line { resistance = 1200.; capacitance = 0.15e-12 })
          ~driver:(Sta.Design.Primary drv)
          ~loads:[ { Sta.Design.instance = "sink"; pin = "a" } ]
          "n";
        let net = Sta.Design.net d "n" in
        let b = Rctree.Tree.Builder.create () in
        let root =
          Rctree.Tree.Builder.add_resistor b
            ~parent:(Rctree.Tree.Builder.input b)
            drv.Tech.Mosfet.on_resistance
        in
        Rctree.Tree.Builder.add_capacitance b root drv.Tech.Mosfet.output_capacitance;
        let far = Rctree.Tree.Builder.add_line b ~parent:root 1200. 0.15e-12 in
        Rctree.Tree.Builder.add_capacitance b far
          (Sta.Celllib.input_capacitance (Sta.Celllib.find lib "inv1") "a");
        Rctree.Tree.Builder.mark_output b ~label:"sink" far;
        let tree = Rctree.Tree.Builder.finish b in
        let expected = Rctree.analyze_named tree ~output:"sink" in
        (match Sta.Netdelay.sink_delays d net with
        | [ sd ] ->
            check_close ~eps:1e-15 "elmore" expected.Rctree.Times.t_d sd.Sta.Netdelay.elmore;
            let lo, hi = sd.Sta.Netdelay.window in
            check_close ~eps:1e-15 "tmin" (Rctree.Bounds.t_min expected 0.5) lo;
            check_close ~eps:1e-15 "tmax" (Rctree.Bounds.t_max expected 0.5) hi
        | _ -> Alcotest.fail "one sink expected"));
    Alcotest.test_case "spice include pipeline feeds the full analysis" `Quick (fun () ->
        let dir = Filename.temp_file "incl" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let write name content =
          let oc = open_out (Filename.concat dir name) in
          output_string oc content;
          close_out oc
        in
        write "loads.sp" "U2 a far 2000 0.5p\nCld far 0 0.05p\n.output far\n";
        write "top.sp" "VIN in 0\nR1 in a 378\nC1 a 0 0.04p\n.include loads.sp\n";
        let deck = Result.get_ok (Spice.Parser.parse_file (Filename.concat dir "top.sp")) in
        let tree = Result.get_ok (Spice.Elaborate.to_tree deck) in
        let out = Rctree.Tree.output_named tree "far" in
        let ts = Rctree.Moments.times tree ~output:out in
        let exact = Circuit.Measure.exact_delay ~segments:16 tree ~output:out ~threshold:0.5 in
        check_bool "bracketed" true
          (Rctree.Bounds.t_min ts 0.5 <= exact && exact <= Rctree.Bounds.t_max ts 0.5);
        Sys.remove (Filename.concat dir "loads.sp");
        Sys.remove (Filename.concat dir "top.sp");
        Unix.rmdir dir);
    Alcotest.test_case "superposition + transition: falling ramp window" `Quick (fun () ->
        (* falling edge under a slow input: mirror, then superpose *)
        let ts = Rctree.Expr.times Rctree.Expr.fig7 in
        let input = Rctree.Excitation.ramp ~rise_time:100. in
        (* falling to 30% of swing = mirrored rising to 70% *)
        let lo, hi = Rctree.Excitation.crossing_bounds ts input ~threshold:0.7 in
        let slo, shi = Rctree.Transition.delay_bounds ts Rctree.Transition.Falling ~threshold:0.3 in
        check_bool "ramp later than step" true (lo > slo && hi > shi));
    Alcotest.test_case "ac bandwidth vs time-domain delay across pla sizes" `Quick (fun () ->
        (* longer line: later crossing and lower bandwidth, consistently *)
        let metrics n =
          let expr = Tech.Pla.line_expr p (Tech.Pla.default_params p) ~minterms:n in
          let tree = Rctree.Lump.discretize ~segments:4 (Rctree.Convert.tree_of_expr expr) in
          let out = Rctree.Tree.output_named tree "out" in
          let delay = Check.Exact.delay (Check.Exact.of_tree tree) ~node:out ~threshold:0.5 in
          let bw = Circuit.Ac.bandwidth_3db (Circuit.Ac.of_tree tree) ~node:out in
          (delay, bw)
        in
        let d10, bw10 = metrics 10 and d40, bw40 = metrics 40 in
        check_bool "slower" true (d40 > d10);
        check_bool "narrower" true (bw40 < bw10);
        (* distributed lines are not single poles, but the product
           bw * t50 stays within a small factor of the ln 2 ideal *)
        let k10 = bw10 *. d10 and k40 = bw40 *. d40 in
        check_bool "product near ln 2" true
          (k10 > 0.3 *. log 2. && k10 < 3. *. log 2.
          && k40 > 0.3 *. log 2. && k40 < 3. *. log 2.));
    Alcotest.test_case "clock tree skew: bounds contain per-leaf exact delays" `Quick (fun () ->
        let gate = Tech.Mosfet.minimum_gate_load p in
        let b = Rctree.Tree.Builder.create () in
        let root =
          Rctree.Tree.Builder.add_resistor b
            ~parent:(Rctree.Tree.Builder.input b)
            Tech.Mosfet.paper_superbuffer.Tech.Mosfet.on_resistance
        in
        let seg = Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:(200. *. micron) ~width:(8. *. micron) in
        let r = Tech.Wire.resistance p seg and c = Tech.Wire.capacitance p seg in
        List.iter
          (fun i ->
            let leaf = Rctree.Tree.Builder.add_line b ~parent:root r c in
            Rctree.Tree.Builder.add_capacitance b leaf (float_of_int i *. gate);
            Rctree.Tree.Builder.mark_output b ~label:(Printf.sprintf "leaf%d" i) leaf)
          [ 1; 2; 3; 4 ];
        let tree = Rctree.Tree.Builder.finish b in
        let lumped = Rctree.Lump.discretize ~segments:8 tree in
        let ex = Check.Exact.of_tree lumped in
        List.iter
          (fun (label, id) ->
            let ts = Rctree.Moments.times tree ~output:id in
            let exact =
              Check.Exact.delay ex ~node:(Rctree.Tree.output_named lumped label) ~threshold:0.5
            in
            check_bool (label ^ " inside") true
              (Rctree.Bounds.t_min ts 0.5 <= exact && exact <= Rctree.Bounds.t_max ts 0.5))
          (Rctree.Tree.outputs tree));
    Alcotest.test_case "all_times powers a one-pass multi-output report" `Quick (fun () ->
        let tree = Tech.Route.to_tree p (routed_net ()) in
        let all = Rctree.Moments.all_times tree in
        List.iter
          (fun (label, id) ->
            check_times label (Rctree.analyze_named tree ~output:label) all.(id))
          (Rctree.Tree.outputs tree);
        check_int "outputs" 2 (List.length (Rctree.Tree.outputs tree)));
  ]

let () = Alcotest.run "integration" [ ("flows", tests) ]
