type integration = Large.integration = Backward_euler | Trapezoidal
type solver = Large.solver

let m_simulations = Obs.Counter.make "transient.simulations"
let m_nodes = Obs.Histogram.make "transient.nodes_per_sim"

type result = {
  times : float array;
  node_values : float array array; (* indexed by tree node id, then sample *)
}

let step_input t = if t < 0. then 0. else 1.

let ramp_input ~rise_time t =
  if rise_time <= 0. then invalid_arg "Transient.ramp_input: rise_time must be positive";
  if t <= 0. then 0. else if t >= rise_time then 1. else t /. rise_time

let simulate ?(integration = Trapezoidal) ?(solver = `Direct) ?cap_floor tree ~dt ~t_end ~input
    =
  let n = Rctree.Tree.node_count tree in
  Large.check_grid ~who:"Transient.simulate" ~dt ~t_end ~traces:n;
  Obs.Span.with_ ~name:"circuit.transient" @@ fun () ->
  Obs.Counter.incr m_simulations;
  (* time advances by accumulated dt until it reaches t_end *)
  let rec count t k = if t >= t_end then k else count (t +. dt) (k + 1) in
  let samples = count 0. 1 in
  let times = Array.make samples 0. in
  for k = 1 to samples - 1 do
    times.(k) <- times.(k - 1) +. dt
  done;
  let node_values = Array.init n (fun _ -> Array.make samples 0.) in
  Large.run ?cap_floor ~integration ~solver tree ~dt ~u:(Array.map input times)
    ~record:(Array.mapi (fun node trace -> (node, trace)) node_values);
  Obs.Histogram.observe m_nodes (float_of_int (n - 1));
  { times; node_values }

let waveform r ~node =
  if node < 0 || node >= Array.length r.node_values then
    invalid_arg "Transient.waveform: unknown node";
  Waveform.create ~times:r.times ~values:r.node_values.(node)

let nodes r = List.init (Array.length r.node_values) Fun.id

let final_voltages r =
  let last = Array.length r.times - 1 in
  List.map (fun node -> (node, r.node_values.(node).(last))) (nodes r)
