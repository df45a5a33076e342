type integration = Large.integration = Backward_euler | Trapezoidal

let m_simulations = Obs.Counter.make "transient.simulations"
let m_nodes = Obs.Histogram.make "transient.nodes_per_sim"

type result = {
  times : float array;
  recorded : int array; (* the recorded nodes, ascending *)
  column : int array; (* per tree node: its slot in a sample, or -1 *)
  per_block : int; (* whole samples per block *)
  blocks : float array array;
      (* sample-major: sample k of recorded node j at
         blocks.(k / per_block).((k mod per_block) * m + j) *)
}

(* Floats per record block (8 MiB): well under glibc's 32 MiB mmap
   ceiling, so a run's record is reused heap memory, not fresh
   zero-filled pages on every call. *)
let block_floats = 1 lsl 20

let step_input t = if t < 0. then 0. else 1.

let ramp_input ~rise_time t =
  if rise_time <= 0. then invalid_arg "Transient.ramp_input: rise_time must be positive";
  if t <= 0. then 0. else if t >= rise_time then 1. else t /. rise_time

let grid ?nodes tree ~dt ~t_end =
  let n = Rctree.Tree.node_count tree in
  let recorded =
    match nodes with
    | None -> Array.init n Fun.id
    | Some nodes ->
        List.iter
          (fun node ->
            if node < 0 || node >= n then invalid_arg "Transient.simulate: unknown node")
          nodes;
        Array.of_list (List.sort_uniq Int.compare nodes)
  in
  Large.check_grid ~who:"Transient.simulate" ~dt ~t_end ~traces:(Array.length recorded);
  (* time advances by accumulated dt until it reaches t_end *)
  let rec count t k = if t >= t_end then k else count (t +. dt) (k + 1) in
  let samples = count 0. 1 in
  let times = Array.make samples 0. in
  for k = 1 to samples - 1 do
    times.(k) <- times.(k - 1) +. dt
  done;
  (recorded, times)

let simulate ?(integration = Trapezoidal) ?solver:(_ : [ `Direct ] option) ?cap_floor ?nodes tree
    ~dt ~t_end ~input =
  let n = Rctree.Tree.node_count tree in
  let recorded, times = grid ?nodes tree ~dt ~t_end in
  let m = Array.length recorded in
  Obs.Span.with_ ~name:"circuit.transient" @@ fun () ->
  Obs.Counter.incr m_simulations;
  let samples = Array.length times in
  let column = Array.make n (-1) in
  Array.iteri (fun j node -> column.(node) <- j) recorded;
  let per_block = max 1 (block_floats / max 1 m) in
  (* not zero-filled: [Large.run] writes every slot of every sample *)
  let blocks =
    Array.init
      (((samples - 1) / per_block) + 1)
      (fun b -> Array.create_float (m * min per_block (samples - (b * per_block))))
  in
  Large.run ?cap_floor ~integration tree ~dt ~u:(Array.map input times) ~record:recorded
    ~into:blocks;
  Obs.Histogram.observe m_nodes (float_of_int (n - 1));
  { times; recorded; column; per_block; blocks }

let sample r k j =
  r.blocks.(k / r.per_block).((k mod r.per_block * Array.length r.recorded) + j)

let waveform r ~node =
  if node < 0 || node >= Array.length r.column || r.column.(node) < 0 then
    invalid_arg "Transient.waveform: node not recorded";
  let j = r.column.(node) in
  let samples = Array.length r.times in
  let values = Array.create_float samples in
  for k = 0 to samples - 1 do
    values.(k) <- sample r k j
  done;
  Waveform.create ~times:r.times ~values

let nodes r = Array.to_list r.recorded

let final_voltages r =
  let last = Array.length r.times - 1 in
  List.mapi (fun j node -> (node, sample r last j)) (nodes r)
