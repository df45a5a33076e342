(* Tests of the circuit-simulation substrate: waveforms, nodal
   stamping, exact eigendecomposition responses, transient integration
   and the paper-level measurements. *)

let check_close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* single pole: input -R- node with C; R = 1k, C = 1n -> tau = 1e-6 *)
let single_pole () =
  let open Rctree.Tree.Builder in
  let b = create ~name:"pole" () in
  let n = add_resistor b ~parent:(input b) ~name:"out" 1000. in
  add_capacitance b n 1e-9;
  mark_output b ~label:"out" n;
  finish b

(* two-pole ladder: R1=1, C1=1, R2=1, C2=1 (normalized units) *)
let ladder2 () =
  let open Rctree.Tree.Builder in
  let b = create ~name:"ladder" () in
  let n1 = add_resistor b ~parent:(input b) ~name:"n1" 1. in
  add_capacitance b n1 1.;
  let n2 = add_resistor b ~parent:n1 ~name:"n2" 1. in
  add_capacitance b n2 1.;
  mark_output b ~label:"out" n2;
  finish b

let fig7_tree () = Rctree.Convert.tree_of_expr Rctree.Expr.fig7

let waveform_tests =
  let open Circuit.Waveform in
  let w () = create ~times:[| 0.; 1.; 2. |] ~values:[| 0.; 0.5; 1. |] in
  [
    Alcotest.test_case "value_at interpolates" `Quick (fun () ->
        check_close "v" 0.25 (value_at (w ()) 0.5));
    Alcotest.test_case "length and range" `Quick (fun () ->
        check_int "n" 3 (length (w ()));
        check_close "start" 0. (start_time (w ()));
        check_close "end" 2. (end_time (w ())));
    Alcotest.test_case "final_value" `Quick (fun () -> check_close "v" 1. (final_value (w ())));
    Alcotest.test_case "crossing_time" `Quick (fun () ->
        check_bool "found" true (crossing_time (w ()) ~threshold:0.25 = Some 0.5);
        check_bool "unreachable" true (crossing_time (w ()) ~threshold:2. = None));
    Alcotest.test_case "map_values" `Quick (fun () ->
        check_close "v" 0.5 (value_at (map_values (fun v -> v *. 2.) (w ())) 0.5));
    Alcotest.test_case "arrays are copied" `Quick (fun () ->
        let times = [| 0.; 1. |] and values = [| 0.; 1. |] in
        let w = create ~times ~values in
        times.(0) <- 99.;
        check_close "protected" 0. (start_time w));
    Alcotest.test_case "bad inputs raise" `Quick (fun () ->
        check_invalid "mismatch" (fun () -> create ~times:[| 0. |] ~values:[| 1.; 2. |]);
        check_invalid "empty" (fun () -> create ~times:[||] ~values:[||]);
        check_invalid "order" (fun () -> create ~times:[| 1.; 0. |] ~values:[| 0.; 1. |]));
    Alcotest.test_case "value_at is bit-identical to Interp.linear" `Quick (fun () ->
        let st = Random.State.make [| 11 |] in
        for _ = 1 to 200 do
          let n = 1 + Random.State.int st 40 in
          let times = Array.make n (Random.State.float st 10. -. 5.) in
          for i = 1 to n - 1 do
            times.(i) <- times.(i - 1) +. 1e-3 +. Random.State.float st 2.
          done;
          let values = Array.init n (fun _ -> Random.State.float st 2. -. 1.) in
          let w = create ~times ~values in
          let queries =
            Array.append times
              (Array.init 50 (fun _ ->
                   times.(0) -. 1. +. Random.State.float st (times.(n - 1) -. times.(0) +. 2.)))
          in
          Array.iter
            (fun t ->
              let a = value_at w t and b = Numeric.Interp.linear ~xs:times ~ys:values t in
              check_bool (Printf.sprintf "%h" t) true
                (Int64.bits_of_float a = Int64.bits_of_float b))
            queries
        done);
  ]

let mna_tests =
  let open Check.Mna in
  [
    Alcotest.test_case "single pole stamping" `Quick (fun () ->
        let sys = of_tree (single_pole ()) in
        check_int "rows" 1 (Check.Matrix.rows sys.g);
        check_close "g" 1e-3 (Check.Matrix.get sys.g 0 0);
        check_close "b" 1e-3 sys.b.(0);
        check_close "c" 1e-9 sys.c.(0));
    Alcotest.test_case "ladder stamping is symmetric" `Quick (fun () ->
        let sys = of_tree (ladder2 ()) in
        check_bool "sym" true (Check.Matrix.is_symmetric sys.g);
        check_close "coupling" (-1.) (Check.Matrix.get sys.g 0 1));
    Alcotest.test_case "row maps are inverse" `Quick (fun () ->
        let tree = ladder2 () in
        let sys = of_tree tree in
        Array.iteri
          (fun row node -> check_int "inverse" row sys.row_of_node.(node))
          sys.node_of_row;
        check_int "input excluded" (-1) sys.row_of_node.(Rctree.Tree.input tree));
    Alcotest.test_case "dc solution is all ones" `Quick (fun () ->
        let sys = of_tree (ladder2 ()) in
        Array.iter (fun v -> check_close ~eps:1e-12 "1V" 1. v) (dc_solution sys));
    Alcotest.test_case "distributed lines rejected" `Quick (fun () ->
        check_invalid "line" (fun () -> of_tree (fig7_tree ())));
    Alcotest.test_case "zero-resistance edge rejected" `Quick (fun () ->
        let b = Rctree.Tree.Builder.create () in
        let n = Rctree.Tree.Builder.add_resistor b ~parent:(Rctree.Tree.Builder.input b) 0. in
        Rctree.Tree.Builder.add_capacitance b n 1.;
        check_invalid "r=0" (fun () -> of_tree (Rctree.Tree.Builder.finish b)));
    Alcotest.test_case "cap floor fills empty nodes" `Quick (fun () ->
        let b = Rctree.Tree.Builder.create () in
        let n1 = Rctree.Tree.Builder.add_resistor b ~parent:(Rctree.Tree.Builder.input b) 1. in
        let n2 = Rctree.Tree.Builder.add_resistor b ~parent:n1 1. in
        Rctree.Tree.Builder.add_capacitance b n2 1.;
        let sys = of_tree (Rctree.Tree.Builder.finish b) in
        Array.iter (fun c -> check_bool "positive" true (c > 0.)) sys.c);
    Alcotest.test_case "explicit cap floor respected" `Quick (fun () ->
        let sys = of_tree ~cap_floor:0.5 (ladder2 ()) in
        Array.iter (fun c -> check_bool ">=0.5" true (c >= 0.5)) sys.c);
    Alcotest.test_case "a system above max_unknowns is refused with its size" `Quick (fun () ->
        let chain n = Circuit.Large.rc_chain ~sections:n ~r:1. ~c:1. in
        check_int "at the limit" max_unknowns
          (Check.Matrix.rows (of_tree (chain max_unknowns)).g);
        let over = chain (max_unknowns + 1) in
        let refused name f =
          match f () with
          | _ -> Alcotest.failf "%s: expected Too_large" name
          | exception Too_large { unknowns; limit } ->
              check_int (name ^ " unknowns") (max_unknowns + 1) unknowns;
              check_int (name ^ " limit") max_unknowns limit
        in
        refused "Mna" (fun () -> ignore (of_tree over));
        refused "Exact" (fun () -> ignore (Check.Exact.of_tree over));
        (* the tree pass and the O(n) stepper have no such limit *)
        let out = Rctree.Tree.output_named over "out" in
        check_bool "ac" true
          (Float.is_finite (Circuit.Ac.bandwidth_3db (Circuit.Ac.of_tree over) ~node:out));
        check_int "stepper" 1
          (List.length (Circuit.Large.step_response over ~dt:1. ~t_end:2. ~outputs:[ out ])));
  ]

let exact_tests =
  let open Check.Exact in
  [
    Alcotest.test_case "single pole: one pole at 1/RC" `Quick (fun () ->
        let r = of_tree (single_pole ()) in
        check_int "n" 1 (Array.length (poles r));
        check_close ~eps:1. "lambda" 1e6 (poles r).(0);
        check_close ~eps:1e-12 "tau" 1e-6 (dominant_time_constant r));
    Alcotest.test_case "single pole matches 1 - e^{-t/tau}" `Quick (fun () ->
        let tree = single_pole () in
        let r = of_tree tree in
        let node = Rctree.Tree.output_named tree "out" in
        List.iter
          (fun t ->
            check_close ~eps:1e-9 "v" (1. -. exp (-.t /. 1e-6)) (voltage r ~node t))
          [ 0.; 2e-7; 1e-6; 5e-6 ]);
    Alcotest.test_case "ladder known eigenvalues" `Quick (fun () ->
        (* G = [[2,-1],[-1,1]], C = I: poles (3 +- sqrt5)/2 *)
        let r = of_tree (ladder2 ()) in
        let s5 = sqrt 5. in
        check_close ~eps:1e-9 "l0" ((3. -. s5) /. 2.) (poles r).(0);
        check_close ~eps:1e-9 "l1" ((3. +. s5) /. 2.) (poles r).(1));
    Alcotest.test_case "input node reads 1" `Quick (fun () ->
        let tree = single_pole () in
        let r = of_tree tree in
        check_close "v" 1. (voltage r ~node:(Rctree.Tree.input tree) 0.5));
    Alcotest.test_case "response is monotone" `Quick (fun () ->
        let tree = ladder2 () in
        let r = of_tree tree in
        let node = Rctree.Tree.output_named tree "out" in
        let prev = ref (-1.) in
        for i = 0 to 100 do
          let v = voltage r ~node (float_of_int i *. 0.1) in
          check_bool "nondecreasing" true (v >= !prev);
          prev := v
        done);
    Alcotest.test_case "delay agrees with analytic inverse" `Quick (fun () ->
        let tree = single_pole () in
        let r = of_tree tree in
        let node = Rctree.Tree.output_named tree "out" in
        check_close ~eps:1e-12 "t50" (1e-6 *. log 2.) (delay r ~node ~threshold:0.5));
    Alcotest.test_case "delay at input is zero" `Quick (fun () ->
        let tree = single_pole () in
        let r = of_tree tree in
        check_close "t" 0. (delay r ~node:(Rctree.Tree.input tree) ~threshold:0.99));
    Alcotest.test_case "bad threshold raises" `Quick (fun () ->
        let tree = single_pole () in
        let r = of_tree tree in
        let node = Rctree.Tree.output_named tree "out" in
        check_invalid "v=1" (fun () -> delay r ~node ~threshold:1.));
    Alcotest.test_case "area above response equals Elmore delay" `Quick (fun () ->
        let tree = ladder2 () in
        let r = of_tree tree in
        let node = Rctree.Tree.output_named tree "out" in
        let elmore = Rctree.Moments.elmore tree ~output:node in
        check_close ~eps:1e-9 "area" elmore (area_above_response r ~node);
        (* and for the intermediate node too *)
        let n1 = Option.get (Rctree.Tree.find_node tree "n1") in
        check_close ~eps:1e-9 "area n1" (Rctree.Moments.elmore tree ~output:n1)
          (area_above_response r ~node:n1));
    Alcotest.test_case "sample returns a waveform on the grid" `Quick (fun () ->
        let tree = single_pole () in
        let r = of_tree tree in
        let node = Rctree.Tree.output_named tree "out" in
        let w = sample r ~node ~times:[| 0.; 1e-6; 2e-6 |] in
        check_int "n" 3 (Circuit.Waveform.length w);
        check_close ~eps:1e-9 "v" (1. -. exp (-1.)) (Circuit.Waveform.value_at w 1e-6));
  ]

let transient_tests =
  let open Circuit.Transient in
  [
    Alcotest.test_case "trapezoidal matches exact on the ladder" `Quick (fun () ->
        let tree = ladder2 () in
        let ex = Check.Exact.of_tree tree in
        let node = Rctree.Tree.output_named tree "out" in
        let r = simulate tree ~dt:0.01 ~t_end:5. ~input:step_input in
        let w = waveform r ~node in
        List.iter
          (fun t ->
            check_close ~eps:1e-4 "v" (Check.Exact.voltage ex ~node t)
              (Circuit.Waveform.value_at w t))
          [ 0.5; 1.; 2.; 4. ]);
    Alcotest.test_case "backward euler converges from below accuracy" `Quick (fun () ->
        let tree = single_pole () in
        let node = Rctree.Tree.output_named tree "out" in
        let err dt =
          let r = simulate ~integration:Backward_euler tree ~dt ~t_end:2e-6 ~input:step_input in
          let w = waveform r ~node in
          Float.abs (Circuit.Waveform.value_at w 1e-6 -. (1. -. exp (-1.)))
        in
        check_bool "halving helps" true (err 1e-7 > err 5e-8));
    Alcotest.test_case "ramp input settles to 1" `Quick (fun () ->
        let tree = single_pole () in
        let node = Rctree.Tree.output_named tree "out" in
        let r = simulate tree ~dt:5e-8 ~t_end:1e-5 ~input:(ramp_input ~rise_time:1e-6) in
        let w = waveform r ~node in
        check_close ~eps:1e-3 "final" 1. (Circuit.Waveform.final_value w));
    Alcotest.test_case "input node waveform is the input" `Quick (fun () ->
        let tree = single_pole () in
        let r = simulate tree ~dt:1e-7 ~t_end:1e-6 ~input:step_input in
        let w = waveform r ~node:(Rctree.Tree.input tree) in
        check_close "u" 1. (Circuit.Waveform.value_at w 5e-7));
    Alcotest.test_case "nodes listed" `Quick (fun () ->
        let tree = ladder2 () in
        let r = simulate tree ~dt:0.1 ~t_end:1. ~input:step_input in
        check_int "n" 3 (List.length (nodes r)));
    Alcotest.test_case "final voltages approach 1" `Quick (fun () ->
        let tree = ladder2 () in
        let r = simulate tree ~dt:0.01 ~t_end:30. ~input:step_input in
        List.iter (fun (_, v) -> check_close ~eps:1e-4 "1V" 1. v) (final_voltages r));
    Alcotest.test_case "bad dt raises" `Quick (fun () ->
        check_invalid "dt" (fun () ->
            simulate (single_pole ()) ~dt:0. ~t_end:1. ~input:step_input));
    Alcotest.test_case "ramp validates rise time" `Quick (fun () ->
        check_invalid "rise" (fun () -> ramp_input ~rise_time:0. 1.));
  ]

let measure_tests =
  [
    Alcotest.test_case "bounds_hold on fig7" `Quick (fun () ->
        let tree = fig7_tree () in
        let out = Rctree.Tree.output_named tree "out" in
        let times = Array.init 40 (fun i -> float_of_int i *. 25.) in
        check_bool "holds" true (Circuit.Measure.bounds_hold tree ~output:out ~times));
    Alcotest.test_case "elmore_by_area equals moments (lumped)" `Quick (fun () ->
        let tree = ladder2 () in
        let out = Rctree.Tree.output_named tree "out" in
        check_close ~eps:1e-9 "elmore" (Rctree.Moments.elmore tree ~output:out)
          (Check.Exact.elmore_by_area tree ~output:out));
    Alcotest.test_case "elmore_by_area equals moments (distributed)" `Quick (fun () ->
        (* pi lumping preserves the first moment for any segment count *)
        let tree = fig7_tree () in
        let out = Rctree.Tree.output_named tree "out" in
        check_close ~eps:1e-6 "elmore" 363.
          (Check.Exact.elmore_by_area ~segments:4 tree ~output:out));
    Alcotest.test_case "exact_delay within PR bounds on a random-ish net" `Quick (fun () ->
        let tree = ladder2 () in
        let out = Rctree.Tree.output_named tree "out" in
        let ts = Rctree.Moments.times tree ~output:out in
        let d = Circuit.Measure.exact_delay tree ~output:out ~threshold:0.5 in
        check_bool "inside" true (Rctree.Bounds.t_min ts 0.5 <= d && d <= Rctree.Bounds.t_max ts 0.5));
    Alcotest.test_case "discretize_for_simulation is identity on lumped trees" `Quick (fun () ->
        let tree = ladder2 () in
        check_bool "same" true (Circuit.Measure.discretize_for_simulation tree == tree));
  ]

(* --- Large (matrix-free) --------------------------------------------- *)

(* The trapezoidal step as it was formed before the midpoint form:
   b = (2C/dt - G) x_n + g (u_n + u_{n+1}) through one operator
   application, then one solve of (2C/dt + G) x_{n+1} = b.  Returns
   every node's samples, [k * rows + row]. *)
let trapezoidal_reference tree ~dt ~u =
  let open Circuit.Large in
  let op = operator tree ~dt:(dt /. 2.) in
  let f = factor op in
  let rows = node_count op and c = c_over_dt op and sources = source_rows op in
  let samples = Array.length u in
  let out = Array.make (samples * rows) 0. in
  let x = Array.make rows 0. and b = Array.make rows 0. in
  for k = 1 to samples - 1 do
    apply_into op x ~into:b;
    for r = 0 to rows - 1 do
      b.(r) <- (2. *. c.(r) *. x.(r)) -. b.(r)
    done;
    List.iter (fun (r, g) -> b.(r) <- b.(r) +. (g *. (u.(k - 1) +. u.(k)))) sources;
    Numeric.Tree_ldl.solve_in_place f b;
    Array.blit b 0 x 0 rows;
    Array.blit x 0 out (k * rows) rows
  done;
  out

(* a ramp over the first [rise] of [samples] samples, then 1 *)
let ramp_samples samples ~rise =
  Array.init samples (fun k -> Float.min 1. (float_of_int k /. float_of_int rise))

(* transient-record's shape in miniature: a driver into a balanced
   binary tree and a star of chains, a few edges distributed lines,
   lumped *)
let record_shaped_tree () =
  let module B = Rctree.Tree.Builder in
  let st = Random.State.make [| 17 |] in
  let b = B.create ~name:"record-shaped" () in
  let vary x = x *. (0.5 +. Random.State.float st 1.) in
  let count = ref 0 in
  let edge parent =
    incr count;
    let node =
      if !count mod 37 = 0 then B.add_line b ~parent (vary 100.) (vary 2e-14)
      else B.add_resistor b ~parent (vary 10.)
    in
    B.add_capacitance b node (vary 1e-14);
    node
  in
  let root = B.add_resistor b ~parent:(B.input b) 100. in
  B.add_capacitance b root 1e-14;
  let rec balanced parent level =
    if level > 0 then begin
      let n = edge parent in
      balanced n (level - 1);
      balanced n (level - 1)
    end
  in
  balanced root 7;
  for _ = 1 to 16 do
    let at = ref root in
    for _ = 1 to 16 do
      at := edge !at
    done;
    B.mark_output b !at
  done;
  Rctree.Lump.discretize ~segments:16 (B.finish b)

let large_tests =
  let open Circuit.Large in
  [
    Alcotest.test_case "operator equals dense stamping" `Quick (fun () ->
        let tree = fig7_tree () |> Rctree.Lump.discretize ~segments:4 in
        let dt = 1. in
        let op = operator tree ~dt in
        let sys = Check.Mna.of_tree tree in
        let dense =
          Check.Matrix.add (Check.Matrix.scale (1. /. dt) (Check.Mna.c_matrix sys)) sys.g
        in
        let st = Random.State.make [| 3 |] in
        let x = Array.init (node_count op) (fun _ -> Random.State.float st 2. -. 1.) in
        check_close ~eps:1e-12 "same action" 0.
          (Check.Vector.max_abs_diff (apply op x) (Check.Matrix.mul_vec dense x)));
    Alcotest.test_case "matches the dense transient" `Quick (fun () ->
        let tree = rc_chain ~sections:12 ~r:100. ~c:1e-12 in
        let out = Rctree.Tree.output_named tree "out" in
        let dt = 5e-11 and t_end = 1e-8 in
        let dense =
          Circuit.Transient.simulate ~integration:Circuit.Transient.Backward_euler tree ~dt ~t_end
            ~input:Circuit.Transient.step_input
        in
        let wd = Circuit.Transient.waveform dense ~node:out in
        let ws = List.assoc out (step_response tree ~dt ~t_end ~outputs:[ out ]) in
        List.iter
          (fun t ->
            check_close ~eps:1e-7 "v" (Circuit.Waveform.value_at wd t)
              (Circuit.Waveform.value_at ws t))
          [ 1e-9; 3e-9; 6e-9; 9e-9 ]);
    Alcotest.test_case "handles a 2000-node chain" `Quick (fun () ->
        let tree = rc_chain ~sections:2000 ~r:1. ~c:1e-12 in
        let out = Rctree.Tree.output_named tree "out" in
        let tau = Rctree.Moments.elmore tree ~output:out in
        let ws = List.assoc out (step_response tree ~dt:(tau /. 5.) ~t_end:tau ~outputs:[ out ]) in
        let final = Circuit.Waveform.final_value ws in
        check_bool "charging" true (final > 0.3 && final < 1.));
    Alcotest.test_case "input node recorded as the source" `Quick (fun () ->
        let tree = rc_chain ~sections:3 ~r:1. ~c:1. in
        let input = Rctree.Tree.input tree in
        let ws = List.assoc input (step_response tree ~dt:0.5 ~t_end:2. ~outputs:[ input ]) in
        check_close "source" 1. (Circuit.Waveform.final_value ws));
    Alcotest.test_case "validation" `Quick (fun () ->
        let tree = rc_chain ~sections:3 ~r:1. ~c:1. in
        check_invalid "dt" (fun () -> operator tree ~dt:0.);
        check_invalid "lines" (fun () -> operator (fig7_tree ()) ~dt:1.);
        check_invalid "unknown output" (fun () ->
            step_response tree ~dt:0.5 ~t_end:1. ~outputs:[ 99 ]);
        check_invalid "sections" (fun () -> rc_chain ~sections:0 ~r:1. ~c:1.));
    Alcotest.test_case "three solvers agree; direct is deterministic" `Quick (fun () ->
        let tree = rc_chain ~sections:200 ~r:10. ~c:1e-13 in
        let out = Rctree.Tree.output_named tree "out" in
        let tau = Rctree.Moments.elmore tree ~output:out in
        let dt = tau /. 50. and t_end = tau in
        let direct () = List.assoc out (step_response tree ~dt ~t_end ~outputs:[ out ]) in
        let oracle engine =
          List.assoc out
            (Check.Stepper.simulate engine ~integration:Backward_euler ~nodes:[ out ] tree ~dt
               ~t_end ~input:Circuit.Transient.step_input)
        in
        let wd = direct () and wc = oracle `Cg and wl = oracle `Dense and wd2 = direct () in
        List.iter
          (fun f ->
            let t = f *. tau in
            let v = Circuit.Waveform.value_at wd t in
            check_close ~eps:0. "deterministic" v (Circuit.Waveform.value_at wd2 t);
            check_close ~eps:1e-9 "direct vs cg" v (Circuit.Waveform.value_at wc t);
            check_close ~eps:1e-9 "direct vs dense" v (Circuit.Waveform.value_at wl t))
          [ 0.1; 0.3; 0.5; 0.8; 1. ]);
    Alcotest.test_case "direct solver matches the eigendecomposition" `Quick (fun () ->
        (* the lumped sub-net: the direct solver's backward-Euler waveform
           against the exact eigendecomposition of the same tree *)
        let tree = rc_chain ~sections:60 ~r:10. ~c:1e-13 in
        let out = Rctree.Tree.output_named tree "out" in
        let ex = Check.Exact.of_tree tree in
        let tau = Check.Exact.dominant_time_constant ex in
        let dt = tau /. 2000. in
        let ws = List.assoc out (step_response tree ~dt ~t_end:tau ~outputs:[ out ]) in
        List.iter
          (fun f ->
            let t = f *. tau in
            check_close ~eps:2e-3 "v"
              (Check.Exact.voltage ex ~node:out t)
              (Circuit.Waveform.value_at ws t))
          [ 0.1; 0.25; 0.5; 0.75; 1. ]);
    Alcotest.test_case "50k-node chain matches the analytic distributed line" `Slow (fun () ->
        (* a 50 000-section uniform chain is a fine spatial discretization
           of the distributed RC line, whose step response at the far end
           is v(t) = 1 - (4/pi) sum ((-1)^n / (2n+1)) exp(-((2n+1) pi/2)^2 t/(RC))
           with R, C the line totals *)
        let sections = 50_000 in
        let r_tot = 1000. and c_tot = 1e-9 in
        let tree =
          rc_chain ~sections ~r:(r_tot /. float_of_int sections)
            ~c:(c_tot /. float_of_int sections)
        in
        let out = Rctree.Tree.output_named tree "out" in
        let rc = r_tot *. c_tot in
        let analytic t =
          let rec go n acc =
            let k = float_of_int ((2 * n) + 1) in
            let rate = (k *. Float.pi /. 2.) ** 2. /. rc in
            let term = exp (-.rate *. t) /. k in
            let acc = acc +. (if n mod 2 = 0 then -.term else term) in
            if n > 30 || term < 1e-12 then acc else go (n + 1) acc
          in
          1. +. (4. /. Float.pi *. go 0 0.)
        in
        let dt = rc /. 4000. in
        let ws = List.assoc out (step_response tree ~dt ~t_end:(rc /. 2.) ~outputs:[ out ]) in
        List.iter
          (fun f ->
            let t = f *. rc in
            check_close ~eps:5e-3 "v" (analytic t) (Circuit.Waveform.value_at ws t))
          [ 0.1; 0.2; 0.35; 0.5 ]);
    Alcotest.test_case "direct stepping does not allocate per step" `Quick (fun () ->
        (* minor-heap growth must not scale with the step count: compare a
           short and a 10x longer run of the same net (metrics disabled);
           any per-step closure or boxing would add >= thousands of words.
           Backward Euler through step_response, trapezoidal with a ramp
           through the stepper itself. *)
        let tree = rc_chain ~sections:200 ~r:10. ~c:1e-13 in
        let out = Rctree.Tree.output_named tree "out" in
        let tau = Rctree.Moments.elmore tree ~output:out in
        let words f =
          Gc.full_major ();
          let w0 = Gc.minor_words () in
          f ();
          Gc.minor_words () -. w0
        in
        let backward_euler steps =
          let dt = tau /. float_of_int steps in
          words (fun () -> ignore (step_response tree ~dt ~t_end:tau ~outputs:[ out ]))
        in
        let trapezoidal steps =
          let dt = tau /. float_of_int steps in
          let u = Array.make (steps + 1) 1. in
          for k = 0 to steps / 2 do
            u.(k) <- float_of_int k /. float_of_int (steps / 2)
          done;
          let into = Array.make (steps + 1) 0. in
          words (fun () ->
              run ~integration:Trapezoidal tree ~dt ~u ~record:[| out |] ~into:[| into |])
        in
        List.iter
          (fun (rule, delta) ->
            ignore (delta 100) (* warm-up *);
            let short = delta 500 and long = delta 5000 in
            check_bool
              (Printf.sprintf "%s: minor words independent of steps (%.0f vs %.0f)" rule short long)
              true
              (Float.abs (long -. short) < 1000.))
          [ ("backward Euler", backward_euler); ("trapezoidal", trapezoidal) ]);
    Alcotest.test_case "step_response and Transient.simulate agree bit for bit" `Quick (fun () ->
        (* dt divides t_end exactly, so step_response's k*dt grid and
           simulate's accumulated t + dt grid are the same samples *)
        let tree = fig7_tree () |> Rctree.Lump.discretize ~segments:4 in
        let dt = 0.5 and t_end = 2. in
        let all = List.init (Rctree.Tree.node_count tree) Fun.id in
        let r =
          Circuit.Transient.simulate ~integration:Backward_euler tree ~dt ~t_end
            ~input:Circuit.Transient.step_input
        in
        let bits w = Array.map Int64.bits_of_float w in
        List.iter
          (fun (node, w) ->
            let w' = Circuit.Transient.waveform r ~node in
            check_bool (Printf.sprintf "node %d times" node) true
              (bits (Circuit.Waveform.times w) = bits (Circuit.Waveform.times w'));
            check_bool (Printf.sprintf "node %d values" node) true
              (bits (Circuit.Waveform.values w) = bits (Circuit.Waveform.values w')))
          (step_response tree ~dt ~t_end ~outputs:all));
    Alcotest.test_case "time grid capped before it is counted" `Quick (fun () ->
        let capped name f =
          match f () with
          | _ -> Alcotest.failf "%s: expected Invalid_argument" name
          | exception Invalid_argument msg ->
              check_bool (name ^ " names the limit") true
                (String.ends_with ~suffix:"(Large.max_grid_values)" msg)
        in
        let tree = rc_chain ~sections:1000 ~r:1. ~c:1. in
        let out = Rctree.Tree.output_named tree "out" in
        let input = Circuit.Transient.step_input in
        (* dt below half an ulp of t_end: an uncapped t + dt count never ends *)
        capped "step_response steps" (fun () ->
            step_response tree ~dt:1e-30 ~t_end:1. ~outputs:[ out ]);
        capped "simulate steps" (fun () ->
            Circuit.Transient.simulate tree ~dt:1e-30 ~t_end:1. ~input);
        capped "step_response infinite t_end" (fun () ->
            step_response tree ~dt:1. ~t_end:infinity ~outputs:[ out ]);
        (* 1e5 steps are fine alone; recording 1000 traces of them is not *)
        capped "step_response values" (fun () ->
            step_response tree ~dt:1. ~t_end:1e5 ~outputs:(List.init 1000 (fun _ -> out)));
        capped "simulate values" (fun () ->
            Circuit.Transient.simulate tree ~dt:1. ~t_end:1e5 ~input);
        check_invalid "nan t_end" (fun () -> step_response tree ~dt:1. ~t_end:nan ~outputs:[ out ]);
        check_invalid "nan dt" (fun () -> Circuit.Transient.simulate tree ~dt:nan ~t_end:1. ~input);
        check_int "under the cap" 11
          (Circuit.Waveform.length
             (List.assoc out (step_response tree ~dt:0.1 ~t_end:1. ~outputs:[ out ]))));
    Alcotest.test_case "operator and factor allocate under a word per row" `Quick (fun () ->
        (* arrays of 100k floats go straight to the major heap, so minor
           words here are per-row options or boxed floats *)
        let rows = 100_000 in
        let tree = rc_chain ~sections:rows ~r:1. ~c:1e-12 in
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let (_ : Numeric.Tree_ldl.t) = factor (operator tree ~dt:1e-12) in
        let per_row = (Gc.minor_words () -. w0) /. float_of_int rows in
        check_bool (Printf.sprintf "%.2f minor words per row" per_row) true (per_row < 1.));
    Alcotest.test_case "row is the node id minus one" `Quick (fun () ->
        let tree = rc_chain ~sections:5 ~r:1. ~c:1. in
        let op = operator tree ~dt:1. in
        check_int "input" (-1) (row op (Rctree.Tree.input tree));
        check_int "last" 4 (row op 5);
        check_invalid "past the end" (fun () -> row op 6);
        check_invalid "negative" (fun () -> row op (-1)));
    Alcotest.test_case "run records sample-major and rejects a short buffer" `Quick (fun () ->
        let tree = rc_chain ~sections:5 ~r:1. ~c:1. in
        let out = Rctree.Tree.output_named tree "out" in
        let samples = 4 and dt = 0.5 in
        let u = Array.make samples 1. in
        let run ~record ~into =
          run ~integration:Backward_euler tree ~dt ~u ~record ~into
        in
        let flat n = Array.make n (-1.) in
        check_invalid "into one short" (fun () ->
            run ~record:[| out; 0 |] ~into:[| flat ((samples * 2) - 1) |]);
        check_invalid "no block" (fun () -> run ~record:[| out |] ~into:[||]);
        check_invalid "first block under a sample" (fun () ->
            run ~record:[| out; 0 |] ~into:[| flat 1; flat 8 |]);
        check_invalid "blocks of 3 samples, one block" (fun () ->
            run ~record:[| out; 0 |] ~into:[| flat 6 |]);
        check_invalid "blocks of 3 samples, last block short" (fun () ->
            run ~record:[| out; 0 |] ~into:[| flat 6; flat 1 |]);
        check_invalid "node past the end" (fun () -> run ~record:[| 6 |] ~into:[| flat 8 |]);
        check_invalid "negative node" (fun () -> run ~record:[| -1 |] ~into:[| flat 8 |]);
        let ws = List.assoc out (step_response tree ~dt ~t_end:1.5 ~outputs:[ out ]) in
        let values = Circuit.Waveform.values ws in
        let expect name at =
          for k = 0 to samples - 1 do
            check_bool (Printf.sprintf "%s: out at sample %d" name k) true
              (Int64.bits_of_float (at k 0) = Int64.bits_of_float values.(k));
            check_close ~eps:0. (Printf.sprintf "%s: input at sample %d" name k) 1. (at k 1)
          done
        in
        (* one block: sample k of record.(j) at k * 2 + j; the spare
           tail is untouched *)
        let into = flat ((samples * 2) + 1) in
        run ~record:[| out; 0 |] ~into:[| into |];
        expect "flat" (fun k j -> into.((k * 2) + j));
        check_close ~eps:0. "tail" (-1.) into.(samples * 2);
        (* a first block of 7 floats holds 3 whole samples; sample 3
           opens the second block *)
        let into = [| flat 7; flat 3 |] in
        run ~record:[| out; 0 |] ~into;
        expect "blocked" (fun k j -> into.(k / 3).((k mod 3 * 2) + j));
        check_close ~eps:0. "first block tail" (-1.) into.(0).(6);
        check_close ~eps:0. "last block tail" (-1.) into.(1).(2));
    Alcotest.test_case "non-finite 1/R or C/dt rejected, naming the node" `Quick (fun () ->
        let contains hay needle =
          let nl = String.length needle in
          let rec go i =
            i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        let names_node what f =
          match f () with
          | _ -> Alcotest.failf "%s: expected Invalid_argument" what
          | exception Invalid_argument msg ->
              check_bool (Printf.sprintf "%s names n1: %s" what msg) true
                (contains msg "\"n1\"")
        in
        let one_pole ~r ~c =
          let open Rctree.Tree.Builder in
          let b = create () in
          let n = add_resistor b ~parent:(input b) ~name:"n1" r in
          add_capacitance b n c;
          finish b
        in
        let tiny_r = one_pole ~r:5e-324 ~c:1e-12 and huge_c = one_pole ~r:1e3 ~c:1e308 in
        names_node "1/R" (fun () -> operator tiny_r ~dt:5e-11);
        names_node "C/dt" (fun () -> operator huge_c ~dt:5e-11);
        names_node "simulate" (fun () ->
            Circuit.Transient.simulate huge_c ~dt:5e-11 ~t_end:5e-9
              ~input:Circuit.Transient.step_input);
        names_node "step_response" (fun () ->
            step_response tiny_r ~dt:5e-11 ~t_end:5e-9 ~outputs:[ 1 ]));
    Alcotest.test_case "simulate's record spans blocks and matches step_response" `Quick
      (fun () ->
        (* 2001 nodes x 601 samples is past one 2^20-float block *)
        let tree = rc_chain ~sections:2000 ~r:1. ~c:1. in
        let dt = 0.5 and t_end = 300. in
        let r =
          Circuit.Transient.simulate ~integration:Backward_euler tree ~dt ~t_end
            ~input:Circuit.Transient.step_input
        in
        let outputs = [ 1; 2; 1000; 2000 ] in
        let bits w = Array.map Int64.bits_of_float (Circuit.Waveform.values w) in
        List.iter
          (fun (node, w) ->
            let w' = Circuit.Transient.waveform r ~node in
            check_int (Printf.sprintf "node %d samples" node) 601 (Circuit.Waveform.length w');
            check_bool (Printf.sprintf "node %d values" node) true (bits w = bits w'))
          (step_response tree ~dt ~t_end ~outputs);
        let final = Circuit.Transient.final_voltages r in
        check_int "final voltages" 2001 (List.length final);
        List.iter
          (fun node ->
            let v = Circuit.Waveform.values (Circuit.Transient.waveform r ~node) in
            check_bool (Printf.sprintf "node %d final" node) true
              (Int64.bits_of_float (List.assoc node final) = Int64.bits_of_float v.(600)))
          outputs);
    Alcotest.test_case "midpoint trapezoidal matches the (2C/dt - G) x form" `Quick (fun () ->
        let worst = ref 0. in
        let compare_on tree ~dt ~u =
          let rows = Rctree.Tree.node_count tree - 1 in
          let samples = Array.length u in
          let into = Array.make (samples * rows) 0. in
          run ~integration:Trapezoidal tree ~dt ~u
            ~record:(Array.init rows (fun r -> r + 1))
            ~into:[| into |];
          let reference = trapezoidal_reference tree ~dt ~u in
          (* relative to the input's full swing, 1 *)
          Array.iteri
            (fun i v -> worst := Float.max !worst (Float.abs (v -. reference.(i))))
            into
        in
        let st = Random.State.make [| 2024 |] in
        for _ = 1 to 40 do
          let { Check.Case.tree; output; _ } = Check.Gen.case ~max_nodes:40 st in
          let tree = Circuit.Measure.discretize_for_simulation tree in
          let tau = Float.max 1e-30 (Rctree.Moments.elmore tree ~output) in
          compare_on tree ~dt:(tau /. 50.) ~u:(ramp_samples 201 ~rise:25)
        done;
        let tree = record_shaped_tree () in
        let t_p = Rctree.Moments.t_p tree in
        compare_on tree ~dt:(25. *. t_p /. 1000.) ~u:(ramp_samples 1001 ~rise:40);
        check_bool (Printf.sprintf "within 1e-12 (worst %.3g)" !worst) true (!worst <= 1e-12));
    Alcotest.test_case "trapezoidal records no subnormal, and a decay reaches 0" `Quick (fun () ->
        let sections = 100_000 in
        let tree = rc_chain ~sections ~r:1. ~c:1. in
        let samples = 21 in
        let into = Array.make (samples * sections) 0. in
        run ~integration:Trapezoidal tree ~dt:1. ~u:(Array.make samples 1.)
          ~record:(Array.init sections (fun r -> r + 1))
          ~into:[| into |];
        let subnormal = ref 0 and tiny = ref 0 in
        Array.iter
          (fun v ->
            if Float.classify_float v = FP_subnormal then incr subnormal
            else if v <> 0. && Float.abs v < 1e-290 then incr tiny)
          into;
        check_int "subnormal samples" 0 !subnormal;
        (* the wave front does reach below 1e-290, so the flush is tested *)
        check_bool
          (Printf.sprintf "values near the bottom of the range (%d)" !tiny)
          true (!tiny > 0);
        (* one RC discharging by 1/3 a step passes through the bottom
           of the range in the 2w - x_n update itself, and must end at
           0, not ring at +-3e-308 *)
        let pole = rc_chain ~sections:1 ~r:1. ~c:1. in
        let samples = 800 in
        let into = Array.make samples 1. in
        run ~cap_floor:0. ~integration:Trapezoidal pole ~dt:1.
          ~u:(Array.init samples (fun k -> if k < 2 then 1. else 0.))
          ~record:[| 1 |] ~into:[| into |];
        check_bool "decay: no subnormal sample" true
          (Array.for_all (fun v -> Float.classify_float v <> FP_subnormal) into);
        check_bool "decay: passes the bottom of the range" true
          (Array.exists (fun v -> v <> 0. && Float.abs v < 1e-300) into);
        check_bool "decay: ends at 0" true (into.(samples - 1) = 0.));
    Alcotest.test_case "simulate ?nodes records the same bits as a full record" `Quick
      (fun () ->
        (* 2001 nodes x 601 samples: the full record spans two blocks,
           the chosen nodes fit in one *)
        let tree = rc_chain ~sections:2000 ~r:1. ~c:1. in
        let chosen = [ 2000; 0; 7; 1000; 7 ] in
        List.iter
          (fun integration ->
            let sim ?nodes () =
              Circuit.Transient.simulate ~integration ?nodes tree ~dt:0.5 ~t_end:300.
                ~input:(Circuit.Transient.ramp_input ~rise_time:20.)
            in
            let full = sim () and part = sim ~nodes:chosen () in
            Alcotest.(check (list int)) "nodes" [ 0; 7; 1000; 2000 ] (Circuit.Transient.nodes part);
            let bits w = Array.map Int64.bits_of_float (Circuit.Waveform.values w) in
            List.iter
              (fun node ->
                check_bool (Printf.sprintf "node %d" node) true
                  (bits (Circuit.Transient.waveform full ~node)
                  = bits (Circuit.Transient.waveform part ~node)))
              chosen;
            let final = Circuit.Transient.final_voltages full in
            List.iter
              (fun (node, v) ->
                check_bool (Printf.sprintf "node %d final" node) true
                  (Int64.bits_of_float v = Int64.bits_of_float (List.assoc node final)))
              (Circuit.Transient.final_voltages part);
            check_invalid "unrecorded node" (fun () -> Circuit.Transient.waveform part ~node:8);
            check_invalid "unknown node" (fun () -> sim ~nodes:[ 2001 ] ()))
          [ Circuit.Transient.Trapezoidal; Circuit.Transient.Backward_euler ]);
    Alcotest.test_case "direct beats the CG oracle by 3x per step on a deep chain" `Quick
      (fun () ->
        (* the stiff chain of BENCH_PR5.json, where the recorded gap was
           971x at 1 000 nodes: CG's iterations per step grow with depth,
           the two sweeps do not; setup is counted in both *)
        let tree = rc_chain ~sections:2000 ~r:10. ~c:1e-13 in
        let out = Rctree.Tree.output_named tree "out" in
        let dt = 1e-10 and steps = 20 in
        let t_end = float_of_int steps *. dt in
        let per_step f =
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          (Unix.gettimeofday () -. t0) /. float_of_int steps
        in
        let direct () = per_step (fun () -> step_response tree ~dt ~t_end ~outputs:[ out ]) in
        let direct = Float.min (direct ()) (direct ()) in
        let cg =
          per_step (fun () ->
              Check.Stepper.simulate `Cg ~integration:Backward_euler ~nodes:[ out ] tree ~dt
                ~t_end ~input:Circuit.Transient.step_input)
        in
        check_bool
          (Printf.sprintf "direct %.3g ms/step, CG %.3g ms/step (%.0fx)" (direct *. 1e3)
             (cg *. 1e3) (cg /. direct))
          true
          (cg >= 3. *. direct));
    Alcotest.test_case "the oracles sample and fail on the grid of Transient.simulate" `Quick
      (fun () ->
        let tree = ladder2 () in
        let outcome f =
          match f () with
          | times -> Ok times
          | exception Invalid_argument msg -> Error msg
        in
        let production ?nodes ~dt ~t_end () =
          outcome (fun () ->
              let r =
                Circuit.Transient.simulate ?nodes tree ~dt ~t_end
                  ~input:Circuit.Transient.step_input
              in
              let node = List.hd (Circuit.Transient.nodes r) in
              Circuit.Waveform.times (Circuit.Transient.waveform r ~node))
        in
        let oracle engine ?nodes ~dt ~t_end () =
          outcome (fun () ->
              match
                Check.Stepper.simulate engine ?nodes tree ~dt ~t_end
                  ~input:Circuit.Transient.step_input
              with
              | (_, w) :: _ -> Circuit.Waveform.times w
              | [] -> [||])
        in
        let show = function
          | Ok times ->
              Printf.sprintf "%d samples, last %h" (Array.length times)
                times.(Array.length times - 1)
          | Error msg -> msg
        in
        List.iter
          (fun (what, nodes, dt, t_end) ->
            let expected = show (production ?nodes ~dt ~t_end ()) in
            List.iter
              (fun engine ->
                Alcotest.(check string) what expected (show (oracle engine ?nodes ~dt ~t_end ())))
              [ `Cg; `Dense ])
          [
            ("grid", None, 0.1, 1.);
            ("uneven grid", Some [ 2; 1 ], 0.3, 1.);
            ("bad dt", None, 0., 1.);
            ("bad t_end", None, 0.1, -1.);
            ("over the cap", None, 1e-9, 1e9);
            ("unknown node", Some [ 7 ], 0.1, 1.);
            ("unknown node before a bad grid", Some [ 7 ], 0., 1.);
          ]);
    Alcotest.test_case "operator reports a bad R before a bad C, rows in one walk" `Quick
      (fun () ->
        (* a chain n1..n5: C = 1e308 on n1 and R = 5e-324 above n5 *)
        let chain ~bad_c ~bad_r =
          let open Rctree.Tree.Builder in
          let b = create () in
          let last = ref (input b) in
          for k = 1 to 5 do
            let r = if bad_r && k = 5 then 5e-324 else 100. *. float_of_int k in
            let n = add_resistor b ~parent:!last ~name:(Printf.sprintf "n%d" k) r in
            add_capacitance b n (if bad_c && k = 1 then 1e308 else 1e-12 *. float_of_int k);
            last := n
          done;
          finish b
        in
        let message tree =
          match operator tree ~dt:5e-11 with
          | _ -> "ok"
          | exception Invalid_argument m -> m
        in
        Alcotest.(check string) "R first"
          "Large.operator: node \"n5\" has a resistance too small for a finite 1/R"
          (message (chain ~bad_c:true ~bad_r:true));
        Alcotest.(check string) "C alone"
          "Large.operator: node \"n1\" has a capacitance too large for a finite C/dt"
          (message (chain ~bad_c:true ~bad_r:false));
        let tree = chain ~bad_c:false ~bad_r:false in
        let op = operator tree ~dt:5e-11 in
        let floor = 1e-12 *. Rctree.Tree.total_capacitance tree in
        Array.iteri
          (fun row c ->
            Alcotest.(check string) (Printf.sprintf "C/dt row %d" row)
              (Printf.sprintf "%h" (Float.max floor (Rctree.Tree.capacitance tree (row + 1)) /. 5e-11))
              (Printf.sprintf "%h" c))
          (c_over_dt op);
        Alcotest.(check string) "source row"
          (Printf.sprintf "%h" (Circuit.Response.conductances ~who:"x" tree).(0))
          (Printf.sprintf "%h" (snd (List.hd (source_rows op)))));
  ]

let () =
  Alcotest.run "circuit"
    [
      ("waveform", waveform_tests);
      ("mna", mna_tests);
      ("exact", exact_tests);
      ("transient", transient_tests);
      ("measure", measure_tests);
      ("large", large_tests);
    ]
