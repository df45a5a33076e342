(* neighbours are design instance ids, each list sorted by name and
   deduplicated *)
type t = {
  design : Design.t;
  by_name : int array; (* instance ids in name order *)
  preds : int array array;
  succs : int array array;
}

(* Kahn's algorithm over ids [0, n): ids with no predecessor enter the
   FIFO queue in [seed] order (position -> id), and [iter_succs u f]
   applies [f] to each successor of [u] as often as [indegree], which is
   consumed, counts the edge *)
let kahn ~indegree ~seed ~iter_succs =
  let n = Array.length indegree in
  let queue = Array.make n 0 and tail = ref 0 in
  let push i =
    queue.(!tail) <- i;
    incr tail
  in
  let release s =
    indegree.(s) <- indegree.(s) - 1;
    if indegree.(s) = 0 then push s
  in
  for k = 0 to n - 1 do
    if indegree.(seed k) = 0 then push (seed k)
  done;
  let head = ref 0 in
  while !head < !tail do
    iter_succs queue.(!head) release;
    incr head
  done;
  if !tail = n then Ok queue else Error (List.filter (fun i -> indegree.(i) > 0) (List.init n Fun.id))

let design_order d =
  let n = Design.instance_count d in
  let loads i f =
    for l = Design.first_load d i to Design.first_load d (i + 1) - 1 do
      f (Design.load_instance d l)
    done
  in
  let indegree = Array.make n 0 in
  for i = 0 to Design.net_count d - 1 do
    if Design.driver_instance d i >= 0 then loads i (fun u -> indegree.(u) <- indegree.(u) + 1)
  done;
  kahn ~indegree ~seed:Fun.id ~iter_succs:(fun u f ->
      let i = Design.driven_net d u in
      if i >= 0 then loads i f)

let of_design d =
  let n = Design.instance_count d in
  let by_name = Design.sorted_instance_ids d in
  let rank = Array.make n 0 in
  Array.iteri (fun r u -> rank.(u) <- r) by_name;
  let preds = Array.make n [] and succs = Array.make n [] in
  for i = 0 to Design.net_count d - 1 do
    let src = Design.driver_instance d i in
    if src >= 0 then
      for l = Design.first_load d i to Design.first_load d (i + 1) - 1 do
        let dst = Design.load_instance d l in
        preds.(dst) <- src :: preds.(dst);
        succs.(src) <- dst :: succs.(src)
      done
  done;
  let sorted l = Array.of_list (List.sort_uniq (fun a b -> Int.compare rank.(a) rank.(b)) l) in
  { design = d; by_name; preds = Array.map sorted preds; succs = Array.map sorted succs }

let names g ids = List.map (Design.instance_name g.design) ids

let neighbours adj g name =
  match Design.instance_id g.design name with
  | u -> names g (Array.to_list adj.(u))
  | exception Not_found -> []

let predecessors g name = neighbours g.preds g name
let successors g name = neighbours g.succs g name

let order_ids g =
  kahn
    ~indegree:(Array.map Array.length g.preds)
    ~seed:(fun k -> g.by_name.(k))
    ~iter_succs:(fun u f -> Array.iter f g.succs.(u))

let stuck_names d ids = List.sort String.compare (List.map (Design.instance_name d) ids)

let topological_order g =
  match order_ids g with
  | Ok order -> Ok (names g (Array.to_list order))
  | Error stuck -> Error (stuck_names g.design stuck)

let levels g =
  match order_ids g with
  | Error _ -> invalid_arg "Graph.levels: design has a combinational cycle"
  | Ok order ->
      let level = Array.make (Array.length g.preds) 0 in
      Array.iter
        (fun i ->
          level.(i) <- Array.fold_left (fun acc p -> Int.max acc (level.(p) + 1)) 0 g.preds.(i))
        order;
      Array.to_list (Array.map (fun i -> (Design.instance_name g.design i, level.(i))) order)
