(* Benchmark harness: one Bechamel micro-benchmark per experiment of
   DESIGN.md, followed by the reproduction tables for every figure and
   table of the paper's evaluation (Fig. 10 delay + voltage, Fig. 11,
   Fig. 13, Fig. 5) and the E8 scaling ablation.

   Run with: dune exec bench/main.exe
   (set BENCH_SKIP_MICRO=1 to print only the reproduction tables;
   RCDELAY_BENCH_QUICK=1 is the CI smoke mode: skips the Bechamel
   phase and shrinks every sized workload so the whole run finishes in
   seconds while still writing the BENCH_*.json records) *)

open Bechamel
open Toolkit

let quick = Sys.getenv_opt "RCDELAY_BENCH_QUICK" <> None

(* ------------------------------------------------------------------ *)
(* workloads                                                          *)
(* ------------------------------------------------------------------ *)

let fig7_expr = Rctree.Expr.fig7
let fig7_tree = Rctree.Convert.tree_of_expr fig7_expr
let fig7_out = Rctree.Tree.output_named fig7_tree "out"
let fig7_times = Rctree.Expr.times fig7_expr
let fig7_lumped16 = Rctree.Lump.discretize ~segments:16 fig7_tree

(* E8: a chain with side branches, the shape where the O(n^2) direct
   method actually pays its quadratic price *)
let chain_expr n =
  let section = Rctree.Expr.(urc 10. 1. @> wb (urc 5. 2.) @> urc 0. 0.5) in
  let rec go acc k = if k = 0 then acc else go (Rctree.Expr.wc acc section) (k - 1) in
  go (Rctree.Expr.urc 50. 0.) n

let chain_tree n = Rctree.Convert.tree_of_expr (chain_expr n)
let chain100_expr = chain_expr 100
let chain100_tree = chain_tree 100
let chain100_out = Rctree.Tree.output_named chain100_tree "out"
let chain100_lumped = Rctree.Lump.discretize ~segments:1 chain100_tree
let thresholds = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]

let sta_design () =
  let lib = Sta.Celllib.default Tech.Process.default_4um in
  let d = Sta.Design.create lib in
  let pin instance p = { Sta.Design.instance; pin = p } in
  Sta.Design.add_instance d ~cell:"buf4" "u1";
  Sta.Design.add_instance d ~cell:"nand2" "u2";
  Sta.Design.add_instance d ~cell:"inv1" "u3";
  Sta.Design.add_net d
    ~driver:(Sta.Design.Primary Tech.Mosfet.paper_superbuffer)
    ~loads:[ pin "u1" "a" ] "in1";
  Sta.Design.add_net d
    ~driver:(Sta.Design.Primary Tech.Mosfet.paper_superbuffer)
    ~loads:[ pin "u2" "b" ] "in2";
  Sta.Design.add_net d
    ~wire:(Sta.Design.Line { resistance = 2000.; capacitance = 0.2e-12 })
    ~driver:(Sta.Design.Cell_output (pin "u1" "y"))
    ~loads:[ pin "u2" "a" ] "n1";
  Sta.Design.add_net d
    ~wire:(Sta.Design.Star { resistance = 800.; capacitance = 0.05e-12 })
    ~driver:(Sta.Design.Cell_output (pin "u2" "y"))
    ~loads:[ pin "u3" "a" ] "n2";
  Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "u3" "y")) ~loads:[] "out";
  Sta.Design.mark_primary_output d "out";
  d

let the_design = sta_design ()

(* PR3: a deep-but-balanced what-if workload — [leaves] URC pieces
   (every fifth carrying a side branch) in balanced association, so
   the incremental edit cost is the O(log n) depth *)
let incr_base_expr ~leaves =
  let piece i =
    let r = 5. +. float_of_int (i mod 13) in
    let c = 0.5 +. (float_of_int (i mod 7) *. 0.25) in
    if i mod 5 = 4 then
      Rctree.Expr.wc (Rctree.Expr.urc r c) (Rctree.Expr.wb (Rctree.Expr.urc (2. *. r) c))
    else Rctree.Expr.urc r c
  in
  Rctree.Expr.balanced_cascade (List.init leaves piece)

(* ------------------------------------------------------------------ *)
(* micro-benchmarks (one per experiment)                              *)
(* ------------------------------------------------------------------ *)

let tests =
  Test.make_grouped ~name:"rctree"
    [
      (* E1/E2: the Fig. 10 pipeline *)
      Test.make ~name:"e1-fig10-algebra-eval"
        (Staged.stage (fun () -> ignore (Rctree.Expr.eval fig7_expr)));
      Test.make ~name:"e1-fig10-delay-bounds"
        (Staged.stage (fun () ->
             List.iter
               (fun v ->
                 ignore (Rctree.Bounds.t_min fig7_times v);
                 ignore (Rctree.Bounds.t_max fig7_times v))
               thresholds));
      (* E8 ablation: linear-time algebra vs fast tree pass vs direct *)
      Test.make ~name:"e8-algebra-chain100"
        (Staged.stage (fun () -> ignore (Rctree.Expr.eval chain100_expr)));
      Test.make ~name:"e8-fast-moments-chain100"
        (Staged.stage (fun () -> ignore (Rctree.Moments.times chain100_tree ~output:chain100_out)));
      Test.make ~name:"e8-direct-moments-chain100"
        (Staged.stage (fun () ->
             ignore (Rctree.Moments.times_direct chain100_tree ~output:chain100_out)));
      (* E3: the exact simulator behind Fig. 11 *)
      Test.make ~name:"e3-fig11-eigendecomposition"
        (Staged.stage (fun () -> ignore (Circuit.Exact.of_tree fig7_lumped16)));
      Test.make ~name:"e3-fig11-transient-600steps"
        (Staged.stage (fun () ->
             ignore
               (Circuit.Transient.simulate fig7_lumped16 ~dt:1. ~t_end:600.
                  ~input:Circuit.Transient.step_input)));
      (* E6: the Fig. 4 area identity *)
      Test.make ~name:"e6-area-identity"
        (Staged.stage (fun () ->
             ignore (Circuit.Measure.elmore_by_area ~segments:8 fig7_tree ~output:fig7_out)));
      (* E4: the Fig. 13 PLA sweep *)
      Test.make ~name:"e4-fig13-pla-sweep"
        (Staged.stage
           (let p = Tech.Process.default_4um in
            let params = Tech.Pla.default_params p in
            fun () -> ignore (Tech.Pla.sweep p params ~minterms:[ 2; 4; 10; 20; 40; 100 ])));
      (* the STA engine on a small design *)
      Test.make ~name:"sta-bounds-analysis"
        (Staged.stage (fun () -> ignore (Sta.Analysis.run_exn the_design)));
      (* discretization ablation *)
      Test.make ~name:"lump-fig7-64-sections"
        (Staged.stage (fun () -> ignore (Rctree.Lump.discretize ~segments:64 fig7_tree)));
      (* extensions *)
      Test.make ~name:"ext-ramp-crossing-bounds"
        (Staged.stage
           (let input = Rctree.Excitation.ramp ~rise_time:200. in
            fun () ->
              ignore (Rctree.Excitation.crossing_bounds fig7_times input ~threshold:0.5)));
      Test.make ~name:"ext-moments-order3-chain100"
        (Staged.stage (fun () ->
             ignore (Rctree.Higher_moments.all_moments chain100_lumped ~order:3)));
      Test.make ~name:"ext-ac-bandwidth"
        (Staged.stage
           (let ac = Circuit.Ac.of_tree fig7_lumped16 in
            let node = Rctree.Tree.output_named fig7_lumped16 "out" in
            fun () -> ignore (Circuit.Ac.bandwidth_3db ac ~node)));
      (* STA at block scale: a 16-bit ripple-carry adder (144 gates) *)
      Test.make ~name:"sta-adder16"
        (Staged.stage
           (let adder = Sta.Generate.ripple_carry_adder ~bits:16 () in
            fun () -> ignore (Sta.Analysis.run_exn adder)));
      (* scalability: one backward-Euler step, dense LU vs matrix-free CG *)
      Test.make ~name:"scale-dense-step-400"
        (Staged.stage
           (let tree = Circuit.Large.rc_chain ~sections:400 ~r:10. ~c:1e-13 in
            fun () ->
              ignore
                (Circuit.Transient.simulate ~integration:Circuit.Transient.Backward_euler tree
                   ~dt:1e-9 ~t_end:1e-9 ~input:Circuit.Transient.step_input)));
      Test.make ~name:"scale-matrixfree-step-400"
        (Staged.stage
           (let tree = Circuit.Large.rc_chain ~sections:400 ~r:10. ~c:1e-13 in
            let out = Rctree.Tree.output_named tree "out" in
            fun () ->
              ignore (Circuit.Large.step_response tree ~dt:1e-9 ~t_end:1e-9 ~outputs:[ out ])));
      (* PR3: one what-if on a 10k-leaf balanced net, memoized vs from scratch *)
      Test.make ~name:"pr3-incremental-edit-10k"
        (Staged.stage
           (let h = Rctree.Incremental.of_expr (incr_base_expr ~leaves:10_000) in
            let path = Rctree.Incremental.leaf_path h 4321 in
            fun () ->
              ignore
                (Rctree.Incremental.times
                   (Rctree.Incremental.apply h
                      (Rctree.Incremental.Replace_leaf
                         { path; resistance = 7.; capacitance = 1. })))));
      Test.make ~name:"pr3-scratch-eval-10k"
        (Staged.stage
           (let e = incr_base_expr ~leaves:10_000 in
            fun () -> ignore (Rctree.Expr.times e)));
    ]

let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Instance.monotonic_clock raw

(* (name, ns-per-run estimate, r^2), sorted by name *)
let benchmark_rows results =
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.map
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      (name, estimate, r2))
    rows

let print_benchmarks rows =
  let table = Reprolib.Table.create ~columns:[ "benchmark"; "ns/run"; "r^2" ] in
  List.iter
    (fun (name, estimate, r2) ->
      Reprolib.Table.add_row table
        [ name; Printf.sprintf "%.1f" estimate; Printf.sprintf "%.4f" r2 ])
    rows;
  print_endline "== micro-benchmarks (Bechamel, monotonic clock) ==";
  Reprolib.Table.print table;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* reproduction tables                                                *)
(* ------------------------------------------------------------------ *)

let fig10_delay_table () =
  print_endline "== E1: Fig. 10 upper table — delay bounds on the Fig. 7 network ==";
  let t = Reprolib.Table.create ~columns:[ "V"; "TMIN"; "TMAX" ] in
  List.iter
    (fun v ->
      Reprolib.Table.add_row t
        [
          Printf.sprintf "%.1f" v;
          Printf.sprintf "%.3f" (Rctree.Bounds.t_min fig7_times v);
          Printf.sprintf "%.3f" (Rctree.Bounds.t_max fig7_times v);
        ])
    thresholds;
  Reprolib.Table.print t;
  print_newline ()

let fig10_voltage_table () =
  print_endline "== E2: Fig. 10 lower table — voltage bounds on the Fig. 7 network ==";
  let t = Reprolib.Table.create ~columns:[ "T"; "VMIN"; "VMAX" ] in
  List.iter
    (fun time ->
      Reprolib.Table.add_row t
        [
          Printf.sprintf "%g" time;
          Printf.sprintf "%.5f" (Rctree.Bounds.v_min fig7_times time);
          Printf.sprintf "%.5f" (Rctree.Bounds.v_max fig7_times time);
        ])
    [ 20.; 40.; 60.; 80.; 100.; 200.; 300.; 400.; 500.; 1000.; 2000. ];
  Reprolib.Table.print t;
  print_newline ()

let fig11_series () =
  print_endline "== E3: Fig. 11 — bounds and exact response, Fig. 7 network ==";
  let times = Array.init 13 (fun i -> float_of_int i *. 50.) in
  let wave = Circuit.Measure.exact_response fig7_tree ~output:fig7_out ~times in
  let t = Reprolib.Table.create ~columns:[ "t"; "v_min"; "v_exact"; "v_max" ] in
  Array.iter
    (fun time ->
      Reprolib.Table.add_row t
        [
          Printf.sprintf "%g" time;
          Printf.sprintf "%.4f" (Rctree.Bounds.v_min fig7_times time);
          Printf.sprintf "%.4f" (Circuit.Waveform.value_at wave time);
          Printf.sprintf "%.4f" (Rctree.Bounds.v_max fig7_times time);
        ])
    times;
  Reprolib.Table.print t;
  let exact50 = Circuit.Measure.exact_delay fig7_tree ~output:fig7_out ~threshold:0.5 in
  Printf.printf "exact 50%% crossing: %.2f (window [%.2f, %.2f])\n\n" exact50
    (Rctree.Bounds.t_min fig7_times 0.5)
    (Rctree.Bounds.t_max fig7_times 0.5)

let fig13_table () =
  print_endline "== E4: Fig. 13 — PLA line delay vs minterms (threshold 0.7) ==";
  let p = Tech.Process.default_4um in
  let params = Tech.Pla.default_params p in
  let t = Reprolib.Table.create ~columns:[ "minterms"; "tmin(ns)"; "tmax(ns)" ] in
  List.iter
    (fun (n, lo, hi) ->
      Reprolib.Table.add_row t
        [ string_of_int n; Printf.sprintf "%.4f" (lo *. 1e9); Printf.sprintf "%.4f" (hi *. 1e9) ])
    (Tech.Pla.sweep p params ~minterms:[ 2; 4; 10; 20; 40; 100 ]);
  Reprolib.Table.print t;
  let xs = [| 20.; 40.; 60.; 100. |] in
  let ys =
    Array.map (fun n -> snd (Tech.Pla.delay_bounds p params ~minterms:(int_of_float n))) xs
  in
  Printf.printf "log-log slope (n >= 20): %.3f — the paper's quadratic dependence\n\n"
    (Numeric.Stats.log_log_slope xs ys)

let fig5_series () =
  print_endline "== E9: Fig. 5 — form of the bounds (generic network) ==";
  let t = Reprolib.Table.create ~columns:[ "t/T_P"; "v_min"; "v_max" ] in
  List.iter
    (fun k ->
      let time = fig7_times.Rctree.Times.t_p *. k in
      Reprolib.Table.add_row t
        [
          Printf.sprintf "%.2f" k;
          Printf.sprintf "%.4f" (Rctree.Bounds.v_min fig7_times time);
          Printf.sprintf "%.4f" (Rctree.Bounds.v_max fig7_times time);
        ])
    [ 0.; 0.25; 0.5; 0.75; 1.; 1.5; 2.; 3.; 4. ];
  Reprolib.Table.print t;
  print_newline ()

let e8_scaling_table () =
  (* settle the heap after the Bechamel phase so wall-clock numbers are
     not dominated by major collections *)
  Gc.compact ();
  print_endline "== E8 ablation: linear-time algebra vs direct O(n^2) method ==";
  let wall f =
    let reps = 50 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6
  in
  let t = Reprolib.Table.create ~columns:[ "sections"; "algebra(us)"; "fast(us)"; "direct(us)" ] in
  List.iter
    (fun n ->
      let e = chain_expr n in
      let tree = chain_tree n in
      let out = Rctree.Tree.output_named tree "out" in
      Reprolib.Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.1f" (wall (fun () -> Rctree.Expr.eval e));
          Printf.sprintf "%.1f" (wall (fun () -> Rctree.Moments.times tree ~output:out));
          Printf.sprintf "%.1f" (wall (fun () -> Rctree.Moments.times_direct tree ~output:out));
        ])
    (if quick then [ 50; 100 ] else [ 50; 100; 200; 400; 800 ]);
  Reprolib.Table.print t;
  print_newline ()

let lump_convergence_table () =
  print_endline "== ablation: discretization error of T_Re vs section count ==";
  let exact = fig7_times.Rctree.Times.t_r in
  let t = Reprolib.Table.create ~columns:[ "sections"; "pi error"; "L error" ] in
  List.iter
    (fun segments ->
      let err scheme =
        let l = Rctree.Lump.discretize ~scheme ~segments fig7_tree in
        let out = Rctree.Tree.output_named l "out" in
        Float.abs ((Rctree.Moments.times l ~output:out).Rctree.Times.t_r -. exact)
      in
      Reprolib.Table.add_row t
        [
          string_of_int segments;
          Printf.sprintf "%.4f" (err Rctree.Lump.Pi_sections);
          Printf.sprintf "%.4f" (err Rctree.Lump.L_sections);
        ])
    [ 1; 2; 4; 8; 16; 32; 64 ];
  Reprolib.Table.print t;
  print_newline ()

let scalability_table () =
  Gc.compact ();
  print_endline "== ablation: dense MNA + LU vs tree LDL^T, one backward-Euler step ==";
  let wall f =
    let t0 = Unix.gettimeofday () in
    let reps = 3 in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e3
  in
  let t = Reprolib.Table.create ~columns:[ "nodes"; "dense(ms)"; "tree LDL^T(ms)" ] in
  List.iter
    (fun n ->
      let tree = Circuit.Large.rc_chain ~sections:n ~r:10. ~c:1e-13 in
      let out = Rctree.Tree.output_named tree "out" in
      let dense () =
        Check.Stepper.simulate `Dense ~integration:Backward_euler ~nodes:[ out ] tree ~dt:1e-9
          ~t_end:1e-9 ~input:Circuit.Transient.step_input
      in
      let tree_ldl () = Circuit.Large.step_response tree ~dt:1e-9 ~t_end:1e-9 ~outputs:[ out ] in
      Reprolib.Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.3f" (wall dense);
          Printf.sprintf "%.3f" (wall tree_ldl);
        ])
    (if quick then [ 100; 200 ] else [ 100; 200; 400; Circuit.Mna.max_unknowns ]);
  Reprolib.Table.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* PR2: the parallel batch engine, 1 vs N domains                     *)
(* ------------------------------------------------------------------ *)

(* (workload, shape, [(domains, ms-per-run)]) *)
let parallel_rows () =
  Gc.compact ();
  let wall ~reps f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e3
  in
  let time_at_domains ~reps f =
    List.map
      (fun domains ->
        Parallel.Pool.with_pool ~domains (fun pool ->
            (domains, wall ~reps (fun () -> f pool))))
      [ 1; 2; 4 ]
  in
  let adder = Sta.Generate.ripple_carry_adder ~bits:(if quick then 16 else 64) () in
  let p = Tech.Process.default_4um in
  let params = Tech.Pla.default_params p in
  let build process =
    let t = Tech.Pla.line_tree process params ~minterms:20 in
    (t, snd (List.hd (Rctree.Tree.outputs t)))
  in
  [
    ( "sta.run_exn",
      Printf.sprintf "%d-bit adder, %d instances"
        (if quick then 16 else 64)
        (List.length (Sta.Design.instances adder)),
      time_at_domains ~reps:3 (fun pool -> Sta.Analysis.run_exn ~pool adder) );
    (let samples = if quick then 40 else 200 in
     ( "tech.monte_carlo",
       Printf.sprintf "%d samples of pla-20" samples,
       time_at_domains ~reps:1 (fun pool ->
           Tech.Variation.monte_carlo ~samples ~pool p ~build ~threshold:0.7) ));
  ]

let speedup_at domains times =
  match (List.assoc_opt 1 times, List.assoc_opt domains times) with
  | Some t1, Some tn when tn > 0. -> t1 /. tn
  | _ -> nan

let print_parallel rows =
  print_endline "== PR2: batch engine throughput, 1 vs N domains ==";
  Printf.printf "host: %d recommended domain(s)\n" (Domain.recommended_domain_count ());
  let t =
    Reprolib.Table.create
      ~columns:[ "workload"; "shape"; "t1(ms)"; "t2(ms)"; "t4(ms)"; "speedup@4" ]
  in
  List.iter
    (fun (name, shape, times) ->
      let at d = match List.assoc_opt d times with Some v -> v | None -> nan in
      Reprolib.Table.add_row t
        [
          name; shape;
          Printf.sprintf "%.1f" (at 1);
          Printf.sprintf "%.1f" (at 2);
          Printf.sprintf "%.1f" (at 4);
          Printf.sprintf "%.2fx" (speedup_at 4 times);
        ])
    rows;
  Reprolib.Table.print t;
  print_newline ()

let write_bench_pr2_json rows =
  let path = Option.value (Sys.getenv_opt "BENCH_PR2_JSON") ~default:"BENCH_PR2.json" in
  let open Obs.Json in
  let workloads =
    Object
      (List.map
         (fun (name, shape, times) ->
           ( name,
             Object
               [
                 ("shape", String shape);
                 ( "ms_per_run",
                   Object
                     (List.map
                        (fun (d, ms) -> (Printf.sprintf "domains_%d" d, Number ms))
                        times) );
                 ("speedup_at_4", Number (speedup_at 4 times));
               ] ))
         rows)
  in
  let doc =
    Object
      [
        ("recommended_domains", Number (float_of_int (Domain.recommended_domain_count ())));
        ("workloads", workloads);
      ]
  in
  let oc = open_out path in
  output_string oc (to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* PR3: incremental what-if engine vs from-scratch re-evaluation      *)
(* ------------------------------------------------------------------ *)

(* serial sweep of random leaf replacements over a deep balanced net:
   every edit answered once through the memoized handle (O(depth)
   algebra ops) and once by editing the plain expression and
   re-evaluating it whole (O(n)); results must agree bit-for-bit *)
let incremental_stats () =
  Gc.compact ();
  let leaves = if quick then 1_000 else 10_000 in
  let n_edits = if quick then 50 else 1_000 in
  let base = incr_base_expr ~leaves in
  let h = Rctree.Incremental.of_expr base in
  let st = Random.State.make [| 0x5eed; 3 |] in
  let edits =
    Array.init n_edits (fun _ ->
        let path = Rctree.Incremental.leaf_path h (Random.State.int st (Rctree.Incremental.leaf_count h)) in
        let r, c = Rctree.Incremental.leaf_value h path in
        Rctree.Incremental.Replace_leaf
          {
            path;
            resistance = r *. (0.5 +. Random.State.float st 1.);
            capacitance = c *. (0.5 +. Random.State.float st 1.);
          })
  in
  let counter name = Option.value (List.assoc_opt name (Obs.counters ())) ~default:0 in
  let wall out f =
    let t0 = Unix.gettimeofday () in
    out := Array.map f edits;
    Unix.gettimeofday () -. t0
  in
  let reeval0 = counter "incr.nodes_reeval" in
  let hits0 = counter "incr.cache_hits" in
  let incr_out = ref [||] in
  let t_incr =
    wall incr_out (fun e -> Rctree.Incremental.times (Rctree.Incremental.apply h e))
  in
  let per_edit c0 name = float_of_int (counter name - c0) /. float_of_int n_edits in
  let reeval_per_edit = per_edit reeval0 "incr.nodes_reeval" in
  let hits_per_edit = per_edit hits0 "incr.cache_hits" in
  let scratch_out = ref [||] in
  let t_scratch =
    wall scratch_out (fun e -> Rctree.Expr.times (Rctree.Incremental.edit_expr base e))
  in
  let identical = !incr_out = !scratch_out in
  ( (leaves, Rctree.Incremental.size h, Rctree.Incremental.depth h),
    n_edits, t_incr, t_scratch, reeval_per_edit, hits_per_edit, identical )

let print_incremental ((pieces, size, depth), n_edits, t_incr, t_scratch, reeval, hits, identical)
    =
  print_endline "== PR3: incremental what-if engine vs from-scratch, serial ==";
  Printf.printf "net: %d pieces, %d URC leaves, depth %d; %d random leaf replacements\n" pieces
    size depth n_edits;
  let t = Reprolib.Table.create ~columns:[ "method"; "total(ms)"; "per edit(us)" ] in
  let row name s =
    Reprolib.Table.add_row t
      [
        name;
        Printf.sprintf "%.1f" (s *. 1e3);
        Printf.sprintf "%.1f" (s /. float_of_int n_edits *. 1e6);
      ]
  in
  row "incremental (memoized spine)" t_incr;
  row "from scratch (full re-eval)" t_scratch;
  Reprolib.Table.print t;
  Printf.printf "speedup: %.1fx   nodes re-evaluated/edit: %.1f   cache hits/edit: %.1f\n"
    (t_scratch /. t_incr) reeval hits;
  Printf.printf "results bit-identical: %b\n\n" identical

let write_bench_pr3_json
    ((pieces, size, depth), n_edits, t_incr, t_scratch, reeval, hits, identical) =
  let path = Option.value (Sys.getenv_opt "BENCH_PR3_JSON") ~default:"BENCH_PR3.json" in
  let open Obs.Json in
  let doc =
    Object
      [
        ( "tree",
          Object
            [
              ("pieces", Number (float_of_int pieces));
              ("leaves", Number (float_of_int size));
              ("depth", Number (float_of_int depth));
            ] );
        ("edits", Number (float_of_int n_edits));
        ("incremental_s", Number t_incr);
        ("from_scratch_s", Number t_scratch);
        ("speedup", Number (t_scratch /. t_incr));
        ("nodes_reeval_per_edit", Number reeval);
        ("cache_hits_per_edit", Number hits);
        ("bit_identical", Bool identical);
        ("quick", Bool quick);
      ]
  in
  let oc = open_out path in
  output_string oc (to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* machine-readable record for diffing future PRs: per-experiment
   ns/op from the Bechamel phase plus the Obs counters and span
   timings accumulated over the reproduction tables *)
let write_bench_json bench_rows =
  let path = Option.value (Sys.getenv_opt "BENCH_JSON") ~default:"BENCH_PR1.json" in
  let open Obs.Json in
  let benchmarks =
    Object
      (List.map
         (fun (name, estimate, r2) ->
           (name, Object [ ("ns_per_run", Number estimate); ("r_square", Number r2) ]))
         bench_rows)
  in
  let counters =
    Object (List.map (fun (n, v) -> (n, Number (float_of_int v))) (Obs.counters ()))
  in
  let spans =
    Object
      (List.map
         (fun (n, calls, total) ->
           (n, Object [ ("calls", Number (float_of_int calls)); ("total_s", Number total) ]))
         (Obs.span_totals ()))
  in
  let doc =
    Object [ ("benchmarks", benchmarks); ("counters", counters); ("spans", spans) ]
  in
  let oc = open_out path in
  output_string oc (to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  (* micro-benchmarks run with metrics disabled so the measured ns/op
     reflect the production (disabled-flag) cost of the hot paths *)
  let bench_rows =
    if quick || Sys.getenv_opt "BENCH_SKIP_MICRO" <> None then []
    else begin
      let rows = benchmark_rows (run_benchmarks ()) in
      print_benchmarks rows;
      rows
    end
  in
  Obs.set_enabled true;
  fig10_delay_table ();
  fig10_voltage_table ();
  fig11_series ();
  fig13_table ();
  fig5_series ();
  e8_scaling_table ();
  lump_convergence_table ();
  scalability_table ();
  let parallel = parallel_rows () in
  print_parallel parallel;
  let incr = incremental_stats () in
  print_incremental incr;
  write_bench_json bench_rows;
  write_bench_pr2_json parallel;
  write_bench_pr3_json incr
