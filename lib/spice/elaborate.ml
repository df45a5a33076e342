type error =
  | No_source
  | Multiple_sources of string list
  | Source_not_grounded of string
  | Element_to_ground of string
  | Capacitor_not_grounded of string
  | Cycle of string
  | Disconnected of string list
  | Unknown_output of string
  | Bad_value of string

let error_to_string = function
  | No_source -> "deck has no source card (V...)"
  | Multiple_sources names -> "deck has multiple sources: " ^ String.concat ", " names
  | Source_not_grounded name -> Printf.sprintf "source %S must have one grounded terminal" name
  | Element_to_ground name ->
      Printf.sprintf
        "element %S connects to ground; only capacitors may (an RC tree has no grounded resistors)"
        name
  | Capacitor_not_grounded name ->
      Printf.sprintf "capacitor %S must have exactly one grounded terminal" name
  | Cycle name -> Printf.sprintf "element %S closes a cycle; the network is not a tree" name
  | Disconnected nodes -> "nodes not reachable from the input: " ^ String.concat ", " nodes
  | Unknown_output node -> Printf.sprintf ".output names unknown node %S" node
  | Bad_value card -> Printf.sprintf "card %S: value must be finite and non-negative" card

exception Elab_error of error

let fail e = raise (Elab_error e)

let bad_value x = x < 0. || not (Float.is_finite x)

(* the terminal that is not ground, when exactly one is *)
let off_ground error n1 n2 =
  match (Deck.is_ground n1, Deck.is_ground n2) with
  | true, false -> n2
  | false, true -> n1
  | _ -> fail error

(* Node names are interned to ints once, in order of first mention with
   the input first, and R and U cards become flat edge arrays.  A BFS
   from the input over a CSR adjacency, each node's edges newest card
   first, then grows the tree. *)
let to_tree_internal deck =
  let module B = Rctree.Tree.Builder in
  let input_node =
    let source = function Deck.Source s -> Some (s.name, s.n1, s.n2) | _ -> None in
    match List.filter_map source deck.Deck.cards with
    | [] -> fail No_source
    | [ (name, n1, n2) ] -> off_ground (Source_not_grounded name) n1 n2
    | many -> fail (Multiple_sources (List.map (fun (name, _, _) -> name) many))
  in
  let size = (2 * List.length deck.Deck.cards) + 1 in
  let ids = Hashtbl.create size and names = Array.make size "" in
  let intern name =
    try Hashtbl.find ids name
    with Not_found ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids name i;
      names.(i) <- name;
      i
  in
  ignore (intern input_node);
  (* edge k joins ends.(2k) and ends.(2k + 1) *)
  let ends = Array.make size 0 and elements = Array.make size ("", 0., 0.) and edges = ref 0 in
  let caps = Array.make size 0. in
  let edge name n1 n2 r c =
    if Deck.is_ground n1 || Deck.is_ground n2 then fail (Element_to_ground name);
    ends.(2 * !edges) <- intern n1;
    ends.((2 * !edges) + 1) <- intern n2;
    elements.(!edges) <- (name, r, c);
    incr edges
  in
  List.iter
    (function
      | Deck.Source _ -> ()
      | Deck.Resistor { name; n1; n2; value } ->
          if bad_value value then fail (Bad_value ("R" ^ name));
          edge name n1 n2 value 0.
      | Deck.Line { name; n1; n2; resistance; capacitance } ->
          if bad_value resistance || bad_value capacitance then fail (Bad_value ("U" ^ name));
          edge name n1 n2 resistance capacitance
      | Deck.Capacitor { name; n1; n2; value } ->
          if bad_value value then fail (Bad_value ("C" ^ name));
          let i = intern (off_ground (Capacitor_not_grounded name) n1 n2) in
          caps.(i) <- caps.(i) +. value)
    deck.Deck.cards;
  let n = Hashtbl.length ids and m = !edges in
  let start = Array.make (n + 1) 0 and adjacent = Array.make (2 * m) 0 in
  for j = 0 to (2 * m) - 1 do
    start.(ends.(j) + 1) <- start.(ends.(j) + 1) + 1
  done;
  for i = 1 to n do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let next = Array.sub start 0 n in
  for j = (2 * m) - 1 downto 0 do
    adjacent.(next.(ends.(j))) <- j / 2;
    next.(ends.(j)) <- next.(ends.(j)) + 1
  done;
  let b = B.create ~name:deck.Deck.title () in
  (* tree id per interned node, -1 until reached; a zero-resistance line
     folds its far node into the near one, so two nodes may share an id *)
  let tree_id = Array.make n (-1) and queue = Array.make n 0 and used = Bytes.make m '\000' in
  let has_child = Bytes.make (m + 1) '\000' and tree_nodes = ref 1 in
  let head = ref 0 and tail = ref 1 in
  tree_id.(0) <- B.input b;
  while !head < !tail do
    let here = queue.(!head) in
    incr head;
    let parent = tree_id.(here) in
    for j = start.(here) to start.(here + 1) - 1 do
      let k = adjacent.(j) in
      if Bytes.get used k = '\000' then begin
        Bytes.set used k '\001';
        let far = if ends.(2 * k) = here then ends.((2 * k) + 1) else ends.(2 * k) in
        let name, r, c = elements.(k) in
        if tree_id.(far) >= 0 then fail (Cycle name);
        tree_id.(far) <- B.add_line b ~parent ~name:names.(far) r c;
        if tree_id.(far) <> parent then begin
          Bytes.set has_child parent '\001';
          incr tree_nodes
        end;
        queue.(!tail) <- far;
        incr tail
      end
    done
  done;
  let missing = ref [] in
  Array.iteri (fun i id -> if id < 0 then missing := names.(i) :: !missing) tree_id;
  if !missing <> [] then fail (Disconnected (List.sort String.compare !missing));
  (* nodes without a C card add 0, which changes no bit *)
  Array.iteri (fun i id -> B.add_capacitance b id caps.(i)) tree_id;
  (match deck.Deck.outputs with
  | [] ->
      (* default: every leaf is an output *)
      for id = 1 to !tree_nodes - 1 do
        if Bytes.get has_child id = '\000' then B.mark_output b id
      done
  | outs ->
      List.iter
        (fun node ->
          match Hashtbl.find ids node with
          | i -> B.mark_output b ~label:node tree_id.(i)
          | exception Not_found -> fail (Unknown_output node))
        outs);
  B.finish b

let m_elaborations = Obs.Counter.make "spice.elaborations"
let m_tree_nodes = Obs.Histogram.make "spice.elaborated_tree_nodes"

let to_tree deck =
  Obs.Span.with_ ~name:"spice.elaborate" @@ fun () ->
  match to_tree_internal deck with
  | tree ->
      Obs.Counter.incr m_elaborations;
      Obs.Histogram.observe m_tree_nodes (float_of_int (Rctree.Tree.node_count tree));
      Ok tree
  | exception Elab_error e -> Error e

let to_tree_exn deck =
  match to_tree deck with
  | Ok tree -> tree
  | Error e -> invalid_arg ("Elaborate.to_tree_exn: " ^ error_to_string e)
