(* instances are numbered in sorted-name order, so walking ids in
   ascending order visits names in sorted order *)
type t = {
  names : string array; (* sorted *)
  ids : (string, int) Hashtbl.t;
  preds : int array array; (* sorted, deduplicated *)
  succs : int array array;
}

let of_design d =
  let names = Array.of_list (List.map fst (Design.instances d)) in
  let n = Array.length names in
  let ids = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace ids name i) names;
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iter
    (fun (net : Design.net) ->
      match net.Design.driver with
      | Design.Primary _ -> ()
      | Design.Cell_output { instance; _ } ->
          let src = Hashtbl.find ids instance in
          List.iter
            (fun { Design.instance; _ } ->
              let dst = Hashtbl.find ids instance in
              preds.(dst) <- src :: preds.(dst);
              succs.(src) <- dst :: succs.(src))
            net.Design.loads)
    (Design.nets d);
  let sorted l = Array.of_list (List.sort_uniq Int.compare l) in
  { names; ids; preds = Array.map sorted preds; succs = Array.map sorted succs }

let neighbours adj g name =
  match Hashtbl.find_opt g.ids name with
  | Some i -> Array.fold_right (fun j acc -> g.names.(j) :: acc) adj.(i) []
  | None -> []

let predecessors g name = neighbours g.preds g name
let successors g name = neighbours g.succs g name

(* Kahn's algorithm; the queue is an array, filled in pop order *)
let order_ids g =
  let n = Array.length g.names in
  let indegree = Array.map Array.length g.preds in
  let queue = Array.make n 0 and tail = ref 0 in
  let push i =
    queue.(!tail) <- i;
    incr tail
  in
  for i = 0 to n - 1 do
    if indegree.(i) = 0 then push i
  done;
  let head = ref 0 in
  while !head < !tail do
    Array.iter
      (fun s ->
        indegree.(s) <- indegree.(s) - 1;
        if indegree.(s) = 0 then push s)
      g.succs.(queue.(!head));
    incr head
  done;
  if !tail = n then Ok queue
  else Error (List.filter (fun i -> indegree.(i) > 0) (List.init n Fun.id))

let topological_order g =
  match order_ids g with
  | Ok order -> Ok (Array.to_list (Array.map (fun i -> g.names.(i)) order))
  | Error stuck -> Error (List.map (fun i -> g.names.(i)) stuck)

let levels g =
  match order_ids g with
  | Error _ -> invalid_arg "Graph.levels: design has a combinational cycle"
  | Ok order ->
      let level = Array.make (Array.length g.names) 0 in
      Array.iter
        (fun i ->
          level.(i) <- Array.fold_left (fun acc p -> Int.max acc (level.(p) + 1)) 0 g.preds.(i))
        order;
      Array.to_list (Array.map (fun i -> (g.names.(i), level.(i))) order)
