let m_handles = Obs.Counter.make "rctree.analysis_handles"
let m_queries = Obs.Counter.make "rctree.analysis_queries"
let m_batches = Obs.Counter.make "rctree.analysis_batches"

type t = {
  tree : Tree.t;
  t_p : float;
  t_d : float array; (* T_De with every node as the output *)
  t_r : float array; (* T_Re, likewise *)
  outputs : (string * Tree.node_id) list;
}

type output = [ `Id of Tree.node_id | `Name of string ]

let make tree =
  Obs.Counter.incr m_handles;
  let t_p, t_d, t_r = Moments.all_sums tree in
  { tree; t_p; t_d; t_r; outputs = Tree.outputs tree }

let tree t = t.tree
let outputs t = t.outputs

let resolve t = function
  | `Id id ->
      if id < 0 || id >= Tree.node_count t.tree then
        invalid_arg (Printf.sprintf "Rctree.Analysis: unknown node %d" id);
      id
  | `Name label -> (
      match List.assoc_opt label t.outputs with
      | Some id -> id
      | None -> invalid_arg (Printf.sprintf "Rctree.Analysis: no output labelled %S" label))

(* eq. (7) is checked here, per answer, so a node nobody asks about
   cannot make [make] raise *)
let times t ~output =
  Obs.Counter.incr m_queries;
  let id = resolve t output in
  Times.make ~t_p:t.t_p ~t_d:t.t_d.(id) ~t_r:t.t_r.(id)

let delay_bounds t ~output ~threshold =
  let ts = times t ~output in
  (Bounds.t_min ts threshold, Bounds.t_max ts threshold)

let voltage_bounds t ~output ~time =
  let ts = times t ~output in
  (Bounds.v_min ts time, Bounds.v_max ts time)

let certify t ~output ~threshold ~deadline = Bounds.certify (times t ~output) ~threshold ~deadline
let elmore t ~output = (times t ~output).Times.t_d

let batch f xs =
  Obs.Counter.incr m_batches;
  Obs.Span.with_ ~name:"rctree.analysis_batch" @@ fun () -> Array.map f xs

let per_output t f = batch (fun (label, id) -> (label, id, f (`Id id))) (Array.of_list t.outputs)
let all_times ?pool:_ t = per_output t (fun output -> times t ~output)
let all_delay_bounds t ~threshold = per_output t (fun output -> delay_bounds t ~output ~threshold)
let all_voltage_bounds t ~time = per_output t (fun output -> voltage_bounds t ~output ~time)

let all_certify t ~threshold ~deadline =
  per_output t (fun output -> certify t ~output ~threshold ~deadline)

let times_of_nodes t nodes = batch (fun id -> times t ~output:(`Id id)) nodes
