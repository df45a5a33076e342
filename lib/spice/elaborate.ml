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

(* series edge extracted from an R or U card *)
type edge = { e_name : string; e_n1 : string; e_n2 : string; e_elem : float * float }

let bad_value x = x < 0. || not (Float.is_finite x)

let to_tree_internal deck =
  let sources =
    List.filter_map
      (function
        | Deck.Source { name; n1; n2 } -> Some (name, n1, n2)
        | Deck.Resistor _ | Deck.Capacitor _ | Deck.Line _ -> None)
      deck.Deck.cards
  in
  let input_node =
    match sources with
    | [] -> fail No_source
    | [ (name, n1, n2) ] ->
        if Deck.is_ground n1 && not (Deck.is_ground n2) then n2
        else if Deck.is_ground n2 && not (Deck.is_ground n1) then n1
        else fail (Source_not_grounded name)
    | many -> fail (Multiple_sources (List.map (fun (name, _, _) -> name) many))
  in
  let edges = ref [] and caps = Hashtbl.create 16 in
  List.iter
    (fun card ->
      match card with
      | Deck.Source _ -> ()
      | Deck.Resistor { name; n1; n2; value } ->
          if bad_value value then fail (Bad_value ("R" ^ name));
          if Deck.is_ground n1 || Deck.is_ground n2 then fail (Element_to_ground name);
          edges := { e_name = name; e_n1 = n1; e_n2 = n2; e_elem = (value, 0.) } :: !edges
      | Deck.Line { name; n1; n2; resistance; capacitance } ->
          if bad_value resistance || bad_value capacitance then fail (Bad_value ("U" ^ name));
          if Deck.is_ground n1 || Deck.is_ground n2 then fail (Element_to_ground name);
          edges := { e_name = name; e_n1 = n1; e_n2 = n2; e_elem = (resistance, capacitance) } :: !edges
      | Deck.Capacitor { name; n1; n2; value } ->
          if bad_value value then fail (Bad_value ("C" ^ name));
          let node =
            if Deck.is_ground n1 && not (Deck.is_ground n2) then n2
            else if Deck.is_ground n2 && not (Deck.is_ground n1) then n1
            else fail (Capacitor_not_grounded name)
          in
          let prev = Option.value (Hashtbl.find_opt caps node) ~default:0. in
          Hashtbl.replace caps node (prev +. value))
    deck.Deck.cards;
  let edges = Array.of_list (List.rev !edges) in
  let adjacency = Hashtbl.create 16 in
  Array.iteri
    (fun i e ->
      Hashtbl.add adjacency e.e_n1 i;
      Hashtbl.add adjacency e.e_n2 i)
    edges;
  let b = Rctree.Tree.Builder.create ~name:deck.Deck.title () in
  let node_ids = Hashtbl.create 16 in
  Hashtbl.replace node_ids input_node (Rctree.Tree.Builder.input b);
  let used = Array.make (Array.length edges) false in
  let queue = Queue.create () in
  Queue.add input_node queue;
  while not (Queue.is_empty queue) do
    let here = Queue.pop queue in
    let here_id = Hashtbl.find node_ids here in
    List.iter
      (fun i ->
        if not used.(i) then begin
          used.(i) <- true;
          let e = edges.(i) in
          let far = if e.e_n1 = here then e.e_n2 else e.e_n1 in
          if Hashtbl.mem node_ids far then fail (Cycle e.e_name)
          else begin
            let r, c = e.e_elem in
            let id = Rctree.Tree.Builder.add_line b ~parent:here_id ~name:far r c in
            Hashtbl.replace node_ids far id;
            Queue.add far queue
          end
        end)
      (Hashtbl.find_all adjacency here)
  done;
  let mentioned = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      Hashtbl.replace mentioned e.e_n1 ();
      Hashtbl.replace mentioned e.e_n2 ())
    edges;
  Hashtbl.iter (fun node _ -> Hashtbl.replace mentioned node ()) caps;
  let missing =
    Hashtbl.fold (fun node () acc -> if Hashtbl.mem node_ids node then acc else node :: acc) mentioned []
  in
  if missing <> [] then fail (Disconnected (List.sort String.compare missing));
  Hashtbl.iter (fun node c -> Rctree.Tree.Builder.add_capacitance b (Hashtbl.find node_ids node) c) caps;
  (match deck.Deck.outputs with
  | [] ->
      (* default: every leaf is an output *)
      let snapshot = Rctree.Tree.Builder.finish b in
      Rctree.Tree.iter_nodes snapshot ~f:(fun id ->
          if Rctree.Tree.children snapshot id = [] && id <> Rctree.Tree.input snapshot then
            Rctree.Tree.Builder.mark_output b id)
  | outs ->
      List.iter
        (fun node ->
          match Hashtbl.find_opt node_ids node with
          | Some id -> Rctree.Tree.Builder.mark_output b ~label:node id
          | None -> fail (Unknown_output node))
        outs);
  Rctree.Tree.Builder.finish b

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
