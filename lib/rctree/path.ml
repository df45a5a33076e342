let edge_resistance t id =
  match Tree.element t id with None -> 0. | Some e -> Element.resistance e

let resistance_to_root t id =
  let rec up id acc =
    match Tree.parent t id with None -> acc | Some p -> up p (acc +. edge_resistance t id)
  in
  up id 0.

let all_resistances_to_root t =
  let n = Tree.node_count t in
  let r = Array.make n 0. in
  (* index order is top-down, so parents are filled before children *)
  for id = 1 to n - 1 do
    match Tree.parent t id with
    | Some p -> r.(id) <- r.(p) +. edge_resistance t id
    | None -> ()
  done;
  r

let on_path_to t e =
  let marks = Array.make (Tree.node_count t) false in
  let rec up id =
    marks.(id) <- true;
    match Tree.parent t id with None -> () | Some p -> up p
  in
  up e;
  marks

let lowest_common_ancestor t a b =
  let on_a = on_path_to t a in
  let rec up id = if on_a.(id) then id else match Tree.parent t id with Some p -> up p | None -> id in
  up b

let shared_resistance t k e = resistance_to_root t (lowest_common_ancestor t k e)

let shared_resistances_to t e =
  let n = Tree.node_count t in
  let rkk = all_resistances_to_root t in
  let on_path = on_path_to t e in
  let rke = Array.make n 0. in
  (* top-down: a node on the path keeps its own R_kk; any other node
     inherits its parent's value (the branch-point resistance) *)
  for id = 1 to n - 1 do
    match Tree.parent t id with
    | Some p -> rke.(id) <- (if on_path.(id) then rkk.(id) else rke.(p))
    | None -> ()
  done;
  rke
