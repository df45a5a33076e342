let require_lumped name t =
  if Tree.has_distributed_lines t then
    invalid_arg ("Sensitivity." ^ name ^ ": discretize distributed lines first")

let check_node name t id =
  if id < 0 || id >= Tree.node_count t then invalid_arg ("Sensitivity." ^ name ^ ": unknown node")

let all_downstream_capacitances t =
  let n = Tree.node_count t in
  let down = Array.init n (fun id -> Tree.capacitance t id) in
  (* ids are topological: reverse order folds subtrees into parents *)
  for id = n - 1 downto 1 do
    match Tree.parent t id with
    | Some p -> down.(p) <- down.(p) +. down.(id)
    | None -> ()
  done;
  down

let downstream_capacitance t id =
  check_node "downstream_capacitance" t id;
  (all_downstream_capacitances t).(id)

let elmore_wrt_capacitance t ~output =
  require_lumped "elmore_wrt_capacitance" t;
  check_node "elmore_wrt_capacitance" t output;
  Path.shared_resistances_to t output

let elmore_wrt_resistance t ~output =
  require_lumped "elmore_wrt_resistance" t;
  check_node "elmore_wrt_resistance" t output;
  let down = all_downstream_capacitances t in
  let on_path = Path.on_path_to t output in
  Array.init (Tree.node_count t) (fun id -> if id > 0 && on_path.(id) then down.(id) else 0.)

let t_p_wrt_capacitance t =
  require_lumped "t_p_wrt_capacitance" t;
  Path.all_resistances_to_root t

let t_p_wrt_resistance t =
  require_lumped "t_p_wrt_resistance" t;
  let down = all_downstream_capacitances t in
  Array.init (Tree.node_count t) (fun id -> if id > 0 then down.(id) else 0.)
