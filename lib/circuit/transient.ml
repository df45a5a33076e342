type integration = Large.integration = Backward_euler | Trapezoidal
type solver = Large.solver

let m_simulations = Obs.Counter.make "transient.simulations"
let m_nodes = Obs.Histogram.make "transient.nodes_per_sim"

type result = {
  times : float array;
  nodes : int; (* every tree node is recorded, in id order *)
  per_block : int; (* whole samples per block *)
  blocks : float array array;
      (* sample-major: sample k of node i at
         blocks.(k / per_block).((k mod per_block) * nodes + i) *)
}

(* Floats per record block (8 MiB): well under glibc's 32 MiB mmap
   ceiling, so a run's record is reused heap memory, not fresh
   zero-filled pages on every call. *)
let block_floats = 1 lsl 20

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
  let per_block = max 1 (block_floats / n) in
  let blocks =
    Array.init
      (((samples - 1) / per_block) + 1)
      (fun b -> Array.make (n * min per_block (samples - (b * per_block))) 0.)
  in
  Large.run ?cap_floor ~integration ~solver tree ~dt ~u:(Array.map input times)
    ~record:(Array.init n Fun.id) ~into:blocks;
  Obs.Histogram.observe m_nodes (float_of_int (n - 1));
  { times; nodes = n; per_block; blocks }

let sample r k node = r.blocks.(k / r.per_block).((k mod r.per_block * r.nodes) + node)

let waveform r ~node =
  if node < 0 || node >= r.nodes then invalid_arg "Transient.waveform: unknown node";
  let samples = Array.length r.times in
  let column = Array.make samples 0. in
  for k = 0 to samples - 1 do
    column.(k) <- sample r k node
  done;
  Waveform.create ~times:r.times ~values:column

let nodes r = List.init r.nodes Fun.id

let final_voltages r =
  let last = Array.length r.times - 1 in
  List.map (fun node -> (node, sample r last node)) (nodes r)
