(* transient-record: a shallow tree (balanced or star, several thousand
   nodes, a few U lines) as deck text; one job is the transient
   subcommand's path — parse, elaborate, discretize, trapezoidal
   simulation of a ramp with the direct solver, and every output
   waveform sampled.  Every node is recorded at every step and the ramp
   charges every node to O(1), so no value goes subnormal. *)

open Harness

let intervals = 1000 (* dt = t_end / intervals, as the transient subcommand *)
let samples = 101 (* points per output waveform, the subcommand's default *)
let settle = 25. (* t_end in units of T_P: the run settles to e^-24 *)
let levels = 12 (* the balanced half: 2^12 - 2 nodes *)
let arms = 64 (* the star half: [arms] chains of [arm_length] *)
let arm_length = 64
let lines = 16 (* distributed edges, each lumped into 64 sections *)

(* a driver resistor into the tree's root; under the root a balanced
   binary tree and a star of chains side by side; [lines] random edges
   are distributed lines, and 32 random nodes are outputs.  The seed
   draws values, line positions and outputs, not sizes. *)
let generate st =
  let module B = Rctree.Tree.Builder in
  let b = B.create ~name:"transient-record" () in
  let vary x = x *. (0.5 +. Random.State.float st 1.) in
  let edges = (1 lsl levels) - 1 + (arms * arm_length) in
  let line_at = Hashtbl.create lines in
  while Hashtbl.length line_at < lines do
    Hashtbl.replace line_at (Random.State.int st edges) ()
  done;
  let nodes = ref [] and count = ref 0 in
  let edge parent =
    let node =
      if Hashtbl.mem line_at !count then B.add_line b ~parent (vary 100.) (vary 2e-14)
      else B.add_resistor b ~parent (vary 10.)
    in
    incr count;
    B.add_capacitance b node (vary 1e-14);
    nodes := node :: !nodes;
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
  balanced root levels;
  for _ = 1 to arms do
    let at = ref root in
    for _ = 1 to arm_length do
      at := edge !at
    done
  done;
  let pool = Array.of_list !nodes in
  let marked = Hashtbl.create 32 in
  while Hashtbl.length marked < 32 do
    let node = pool.(Random.State.int st (Array.length pool)) in
    if not (Hashtbl.mem marked node) then begin
      Hashtbl.replace marked node ();
      B.mark_output b node
    end
  done;
  B.finish b

let parse = Signoff_wide.parse
let elaborate = Signoff_wide.elaborate

let lump tree =
  if Rctree.Tree.has_distributed_lines tree then
    Rctree.Lump.discretize ~segments:Circuit.Measure.default_segments tree
  else tree

(* The paper's area identity: for an input settling to 1,
   ∫(u - v_out) dt is the Elmore delay T_De of the output.  For the
   trapezoidal rule the discrete sum is exact up to the unsettled
   remainder, so each output's trapezoidal area over the run matches
   [Rctree.Analysis.elmore] of the lumped tree to 1e-6 relative. *)
let check ~(elmore : (string, float) Hashtbl.t) ~dt ~input waves =
  let u = Circuit.Waveform.values input in
  List.length waves = Hashtbl.length elmore
  && List.for_all
       (fun (label, w) ->
         let v = Circuit.Waveform.values w in
         let area = ref 0. in
         for k = 0 to Array.length v - 2 do
           area := !area +. (0.5 *. dt *. (u.(k) -. v.(k) +. u.(k + 1) -. v.(k + 1)))
         done;
         match Hashtbl.find_opt elmore label with
         | Some e -> close ~rtol:1e-6 !area e
         | None -> false)
       waves

let make (ctx : ctx) =
  let st = Random.State.make [| ctx.seed; 0x7ec0 |] in
  let tree = generate st in
  let text = Spice.Printer.to_string tree in
  let t_p = Rctree.Moments.t_p tree in
  let t_end = settle *. t_p in
  let dt = t_end /. float_of_int intervals in
  let input = Circuit.Transient.ramp_input ~rise_time:t_p in
  (* the oracle side: its own parse, discretization and Elmore delays *)
  let ref_lumped = lump (elaborate (parse text)) in
  let elmore = Hashtbl.create 32 in
  let h = Rctree.Analysis.make ref_lumped in
  List.iter
    (fun (label, _) ->
      Hashtbl.replace elmore label (Rctree.Analysis.elmore h ~output:(`Name label)))
    (Rctree.Tree.outputs ref_lumped);
  let unknowns = Rctree.Tree.node_count ref_lumped - 1 in
  let sample_times =
    Array.init samples (fun i -> t_end *. float_of_int i /. float_of_int (samples - 1))
  in
  (* the simulator's own step count: time advances by dt until t_end *)
  let steps =
    let rec go t k = if t >= t_end then k else go (t +. dt) (k + 1) in
    go 0. 0
  in
  let run_job ~traced =
    let t0 = now () in
    let deck = parse text in
    let t1 = now () in
    let tree = elaborate deck in
    let t2 = now () in
    let lumped = lump tree in
    let t3 = now () in
    let res =
      Circuit.Transient.simulate ~integration:Trapezoidal ~solver:`Direct lumped ~dt ~t_end ~input
    in
    let t4 = now () in
    let waves =
      List.map
        (fun (label, id) -> (label, Circuit.Transient.waveform res ~node:id))
        (Rctree.Tree.outputs lumped)
    in
    let sampled =
      List.map (fun (_, w) -> Array.map (Circuit.Waveform.value_at w) sample_times) waves
    in
    let t5 = now () in
    let phases =
      if not traced then []
      else
        let op, t_op = timed (fun () -> Circuit.Large.operator lumped ~dt:(dt /. 2.)) in
        let _, t_factor = timed (fun () -> Circuit.Large.factor op) in
        [
          ("spice.parse_s", t1 -. t0);
          ("spice.elaborate_s", t2 -. t1);
          ("rctree.lump_s", t3 -. t2);
          ("circuit.simulate_s", t4 -. t3);
          ("circuit.operator_s", t_op);
          ("numeric.factor_s", t_factor);
          ("circuit.step_s", (t4 -. t3 -. t_op -. t_factor) /. float_of_int steps);
          ( "circuit.record_bytes",
            8. *. float_of_int (Rctree.Tree.node_count lumped) *. float_of_int (steps + 1) );
        ]
    in
    let input_wave = Circuit.Transient.waveform res ~node:(Rctree.Tree.input lumped) in
    let ok = check ~elmore ~dt ~input:input_wave waves in
    let live = live_mb (lumped, res, sampled) in
    ({ total = t5 -. t0; setup = t3 -. t0; phases; live; ok }, res, lumped)
  in
  let job ~traced =
    let s, _, _ = run_job ~traced in
    s
  in
  let controls () =
    let res = Circuit.Transient.simulate ~integration:Trapezoidal ref_lumped ~dt ~t_end ~input in
    let waves =
      List.map
        (fun (label, id) -> (label, Circuit.Transient.waveform res ~node:id))
        (Rctree.Tree.outputs ref_lumped)
    in
    let input_wave = Circuit.Transient.waveform res ~node:(Rctree.Tree.input ref_lumped) in
    let shifted =
      List.mapi
        (fun i (label, w) ->
          if i = 0 then (label, Circuit.Waveform.map_values (fun v -> v *. 0.9999) w)
          else (label, w))
        waves
    in
    check ~elmore ~dt ~input:input_wave waves
    && not (check ~elmore ~dt ~input:input_wave shifted)
  in
  let probes traced =
    let step_s = median (List.filter_map (field "circuit.step_s") traced) in
    let _, res, lumped = run_job ~traced:false in
    let op = Circuit.Large.operator lumped ~dt:(dt /. 2.) in
    let state = Array.make (Circuit.Large.node_count op) 0. in
    List.iter
      (fun (node, v) ->
        let r = Circuit.Large.row op node in
        if r >= 0 then state.(r) <- v)
      (Circuit.Transient.final_voltages res);
    let state_rhs = Solve_probe.next_rhs ~trapezoidal:true op state in
    let clean, numeric = Solve_probe.solves ~reps:51 op ~state ~state_rhs in
    ("circuit.step_over_solve", step_s /. clean) :: numeric
  in
  {
    shape =
      [
        ("tree", Str (Printf.sprintf "balanced %d levels + star %dx%d" levels arms arm_length));
        ("deck_nodes", Int (Rctree.Tree.node_count tree));
        ("u_lines", Int lines);
        ("segments_per_line", Int Circuit.Measure.default_segments);
        ("unknowns", Int unknowns);
        ("outputs", Int (Hashtbl.length elmore));
        ("t_end_s", Num t_end);
        ("dt_s", Num dt);
        ("steps", Int steps);
        ("integration", Str "trapezoidal");
        ("solver", Str "direct");
        ("input", Str "ramp, rise = T_P");
        ("samples_per_output", Int samples);
        ("deck_bytes", Int (String.length text));
      ];
    work_per_job = float_of_int (unknowns * steps);
    min_jobs = 3;
    warmup = true;
    job;
    probes;
    controls;
    armed = ctx.self_test;
  }
