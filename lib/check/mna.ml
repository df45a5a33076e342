type system = {
  g : Matrix.t;
  c : Vector.t;
  b : Vector.t;
  node_of_row : int array;
  row_of_node : int array;
}

exception Too_large of { unknowns : int; limit : int }

let max_unknowns = 512

let default_cap_floor tree =
  let total = Rctree.Tree.total_capacitance tree in
  if total > 0. then 1e-12 *. total else 1e-18

let of_tree ?cap_floor tree =
  if Rctree.Tree.has_distributed_lines tree then
    invalid_arg "Mna.of_tree: discretize distributed lines first (Rctree.Lump.discretize)";
  let n = Rctree.Tree.node_count tree in
  let rows = n - 1 in
  (* before anything n² is allocated *)
  if rows > max_unknowns then raise (Too_large { unknowns = rows; limit = max_unknowns });
  let input = Rctree.Tree.input tree in
  let row_of_node = Array.make n (-1) in
  let node_of_row = Array.make rows 0 in
  let next = ref 0 in
  for id = 0 to n - 1 do
    if id <> input then begin
      row_of_node.(id) <- !next;
      node_of_row.(!next) <- id;
      incr next
    end
  done;
  let floor =
    match cap_floor with
    | Some f ->
        if f < 0. then invalid_arg "Mna.of_tree: cap_floor must be non-negative";
        f
    | None -> default_cap_floor tree
  in
  let g = Matrix.create rows rows in
  let b = Vector.create rows in
  let c = Vector.create rows in
  for id = 0 to n - 1 do
    if id <> input then begin
      let row = row_of_node.(id) in
      c.(row) <- Float.max floor (Rctree.Tree.capacitance tree id);
      match Rctree.Tree.element tree id with
      | None -> assert false
      | Some (Rctree.Element.Line _) -> assert false (* excluded above *)
      | Some (Rctree.Element.Capacitor _) -> assert false (* builder never makes these edges *)
      | Some (Rctree.Element.Resistor r) ->
          if r <= 0. then
            invalid_arg
              (Printf.sprintf "Mna.of_tree: node %S connects through zero resistance"
                 (Rctree.Tree.node_name tree id));
          let cond = 1. /. r in
          (* a non-finite entry would turn every answer into NaN *)
          if not (Float.is_finite cond) then
            invalid_arg
              (Printf.sprintf "Mna.of_tree: node %S has a resistance too small for a finite 1/R"
                 (Rctree.Tree.node_name tree id));
          let p = match Rctree.Tree.parent tree id with Some p -> p | None -> assert false in
          Matrix.add_entry g row row cond;
          if p = input then b.(row) <- b.(row) +. cond
          else begin
            let prow = row_of_node.(p) in
            Matrix.add_entry g prow prow cond;
            Matrix.add_entry g row prow (-.cond);
            Matrix.add_entry g prow row (-.cond)
          end
    end
  done;
  { g; c; b; node_of_row; row_of_node }

let c_matrix sys =
  let n = Vector.dim sys.c in
  Matrix.init n n (fun i j -> if i = j then sys.c.(i) else 0.)

let dc_solution sys = Lu.solve sys.g sys.b
