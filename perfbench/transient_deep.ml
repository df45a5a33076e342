(* transient-deep: an RC chain of about a million nodes with sparse side
   branches, built in memory through [Rctree.Tree.Builder] (a deck this
   size would make parsing dwarf the stepper), then a backward-Euler
   step response of a few dozen steps recording the node next to the
   input and the far end.  Setup phases and steps on a subnormal-filled
   state both take visible shares; there is no parsing and no moments
   query. *)

open Harness

let dt = 1e-10
let steps = 24

(* the builder calls, as data: op [i] adds a resistor [r.(i)] under op
   [parent.(i)] (-1 for the input) and puts [c.(i)] on the new node *)
type input = { parent : int array; r : float array; c : float array; near : int; far : int }

(* a chain of [main] sections; after about one section in a thousand a
   side branch of 1 to 20 sections hangs off the chain node *)
let generate st ~main =
  let cap = 2 * main in
  let parent = Array.make cap 0 and r = Array.make cap 0. and c = Array.make cap 0. in
  let count = ref 0 in
  let add p =
    let i = !count in
    parent.(i) <- p;
    r.(i) <- 10. *. (0.5 +. Random.State.float st 1.);
    c.(i) <- 1e-13 *. (0.5 +. Random.State.float st 1.);
    incr count;
    i
  in
  let at = ref (-1) in
  for _ = 1 to main do
    at := add !at;
    if Random.State.int st 1000 = 0 then begin
      let side = ref !at in
      for _ = 1 to 1 + Random.State.int st 20 do
        side := add !side
      done
    end
  done;
  let n = !count in
  { parent = Array.sub parent 0 n; r = Array.sub r 0 n; c = Array.sub c 0 n; near = 0; far = !at }

let build inp =
  let module B = Rctree.Tree.Builder in
  let b = B.create ~name:"transient-deep" () in
  let n = Array.length inp.parent in
  let ids = Array.make n 0 in
  let input = B.input b in
  for i = 0 to n - 1 do
    let p = inp.parent.(i) in
    let id = B.add_resistor b ~parent:(if p < 0 then input else ids.(p)) inp.r.(i) in
    B.add_capacitance b id inp.c.(i);
    ids.(i) <- id
  done;
  (B.finish b, ids.(inp.near), ids.(inp.far))

(* [Large.step_response] rounds the step count up from t_end/dt *)
let t_end = float_of_int steps *. dt
let taken = int_of_float (Float.ceil (t_end /. dt))

(* The reference trajectory, by the benchmark's own loop: factor
   (C/dt + G) once, then per step rhs = C/dt x + g at the source rows,
   one tree-LDLᵀ solve, and the residual of that solve through the
   matrix-free [Large.apply].  Returns the samples at [rows], the
   worst relative residual and the final state. *)
let reference_trajectory tree ~rows =
  let op = Circuit.Large.operator tree ~dt in
  let f = Circuit.Large.factor op in
  let n = Circuit.Large.node_count op in
  let c = Circuit.Large.c_over_dt op in
  let sources = Circuit.Large.source_rows op in
  let traces = List.map (fun _ -> Array.make (taken + 1) 0.) rows in
  let x = Array.make n 0. and b = Array.make n 0. and rhs = Array.make n 0. in
  let ax = Array.make n 0. in
  let worst = ref 0. in
  let inf_norm a = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0. a in
  for k = 1 to taken do
    for r = 0 to n - 1 do
      b.(r) <- c.(r) *. x.(r)
    done;
    List.iter (fun (r, g) -> b.(r) <- b.(r) +. g) sources;
    Array.blit b 0 rhs 0 n;
    Numeric.Tree_ldl.solve_in_place f b;
    Circuit.Large.apply_into op b ~into:ax;
    let res = ref 0. in
    for r = 0 to n - 1 do
      res := Float.max !res (Float.abs (ax.(r) -. rhs.(r)))
    done;
    worst := Float.max !worst (!res /. inf_norm rhs);
    Array.blit b 0 x 0 n;
    List.iter2 (fun row tr -> tr.(k) <- x.(row)) rows traces
  done;
  (traces, !worst, x)

(* a job's recorded samples must equal the reference trajectory (to
   roundoff, and below 1e-30 V, where a flush-to-zero may differ) *)
let check ~reference waves =
  List.length waves = List.length reference
  && List.for_all2
       (fun (_, w) tr ->
         let v = Circuit.Waveform.values w in
         Array.length v = Array.length tr
         && Array.for_all2 (fun a b -> close ~atol:1e-30 ~rtol:1e-12 a b) v tr)
       waves reference

let main_sections = 990_000
let small_sections = 9_900

let make (ctx : ctx) =
  let st = Random.State.make [| ctx.seed; 0xdee9 |] in
  let inp = generate st ~main:main_sections in
  let small = generate (Random.State.make [| ctx.seed; 0x5a11 |]) ~main:small_sections in
  let unknowns = Array.length inp.parent in
  let reference, residual, state, state_rhs =
    let tree, near, far = build inp in
    let op = Circuit.Large.operator tree ~dt in
    let rows = [ Circuit.Large.row op near; Circuit.Large.row op far ] in
    let traces, residual, x = reference_trajectory tree ~rows in
    (traces, residual, x, Solve_probe.next_rhs ~trapezoidal:false op x)
  in
  let state_subnormal = Solve_probe.subnormal_share state in
  if residual > 1e-9 then Printf.eprintf "reference residual %g above 1e-9\n%!" residual;
  let residual_ok = residual <= 1e-9 in
  (* a traced job also times the operator and the factor as separate
     calls, to split them out of the stepping call *)
  let job ~traced =
    let t0 = now () in
    let tree, near, far = build inp in
    let t1 = now () in
    let waves = Circuit.Large.step_response tree ~dt ~t_end ~outputs:[ near; far ] in
    let t2 = now () in
    let phases =
      if not traced then []
      else
        let op, t_op = timed (fun () -> Circuit.Large.operator tree ~dt) in
        let _, t_factor = timed (fun () -> Circuit.Large.factor op) in
        [
          ("rctree.build_s", t1 -. t0);
          ("circuit.operator_s", t_op);
          ("numeric.factor_s", t_factor);
          ("circuit.step_s", (t2 -. t1 -. t_op -. t_factor) /. float_of_int taken);
        ]
    in
    {
      total = t2 -. t0;
      setup = t1 -. t0;
      phases;
      live = live_mb (tree, waves);
      ok = residual_ok && check ~reference waves;
    }
  in
  let controls () =
    let nudged =
      List.mapi
        (fun i tr ->
          let tr = Array.copy tr in
          if i = 0 then tr.(taken) <- tr.(taken) *. (1. +. 1e-9);
          tr)
        reference
    in
    let as_waves trs =
      let times = Array.init (taken + 1) (fun k -> float_of_int k *. dt) in
      List.map (fun tr -> (0, Circuit.Waveform.create ~times ~values:tr)) trs
    in
    check ~reference (as_waves reference) && not (check ~reference (as_waves nudged))
  in
  let probes traced =
    let step_s = median (List.filter_map (field "circuit.step_s") traced) in
    (* the same per-step figure on a 10k-node chain of the same shape *)
    let small_step =
      let tree, near, far = build small in
      median_of ~reps:9 (fun () ->
          let _, t_sr =
            timed (fun () -> Circuit.Large.step_response tree ~dt ~t_end ~outputs:[ near; far ])
          in
          let op, t_op = timed (fun () -> Circuit.Large.operator tree ~dt) in
          let _, t_factor = timed (fun () -> Circuit.Large.factor op) in
          (t_sr -. t_op -. t_factor) /. float_of_int taken)
    in
    let small_nodes = float_of_int (Array.length small.parent) in
    let tree, _, _ = build inp in
    let op = Circuit.Large.operator tree ~dt in
    let clean, numeric = Solve_probe.solves ~reps:9 op ~state ~state_rhs in
    [
      ("circuit.step_over_solve", step_s /. clean);
      ( "circuit.step_scaling",
        step_s /. float_of_int unknowns /. (small_step /. small_nodes) );
    ]
    @ numeric
  in
  {
    shape =
      [
        ("nodes", Int (unknowns + 1));
        ("unknowns", Int unknowns);
        ("main_chain", Int main_sections);
        ("side_nodes", Int (unknowns - main_sections));
        ("dt_s", Num dt);
        ("steps", Int taken);
        ("integration", Str "backward-euler");
        ("solver", Str "direct");
        ("recorded_nodes", Int 2);
        ("scaling_chain_nodes", Int (Array.length small.parent));
        ("reference_residual", Num residual);
        ("reference_subnormal_share", Num state_subnormal);
      ];
    work_per_job = float_of_int (unknowns * taken);
    min_jobs = 3;
    warmup = false;
    job;
    probes;
    controls;
    armed = ctx.self_test;
  }
