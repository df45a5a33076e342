type cell = {
  cell_name : string;
  inputs : (string * float) list;
  output : string;
  intrinsic_delay : float;
  delay_per_farad : float;
  drive : Tech.Mosfet.driver;
}

let make ~name ~inputs ?(output = "y") ~intrinsic_delay ?(delay_per_farad = 0.) ~drive () =
  if inputs = [] then invalid_arg "Celllib.make: cell needs at least one input";
  if intrinsic_delay < 0. then invalid_arg "Celllib.make: negative intrinsic delay";
  if delay_per_farad < 0. then invalid_arg "Celllib.make: negative delay_per_farad";
  let pin_names = List.map fst inputs in
  let sorted = List.sort_uniq String.compare pin_names in
  if List.length sorted <> List.length pin_names then
    invalid_arg "Celllib.make: duplicate input pin";
  if List.mem output pin_names then invalid_arg "Celllib.make: output pin collides with an input";
  List.iter
    (fun (pin, c) ->
      if c < 0. then invalid_arg (Printf.sprintf "Celllib.make: negative capacitance on pin %S" pin))
    inputs;
  { cell_name = name; inputs; output; intrinsic_delay; delay_per_farad; drive }

let input_capacitance cell pin = List.assoc pin cell.inputs
let has_input cell pin = List.mem_assoc pin cell.inputs

let input_index cell pin = List.find_index (fun (p, _) -> String.equal p pin) cell.inputs

type library = (string * cell) list

let library cells =
  let names = List.map (fun c -> c.cell_name) cells in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Celllib.library: duplicate cell name";
  List.map (fun c -> (c.cell_name, c)) cells

let find lib name = snd (List.find (fun (n, _) -> String.equal n name) lib)
let cells lib = List.map snd lib

let default process =
  let gate = Tech.Mosfet.minimum_gate_load process in
  let inv_drive strength =
    Tech.Mosfet.driver
      ~name:(Printf.sprintf "inv%dx" strength)
      ~on_resistance:(8000. /. float_of_int strength)
      ~output_capacitance:(float_of_int strength *. 0.01e-12)
      ()
  in
  let ns = 1e-9 in
  library
    [
      make ~name:"inv1" ~inputs:[ ("a", gate) ] ~intrinsic_delay:(1.0 *. ns) ~drive:(inv_drive 1) ();
      make ~name:"inv4" ~inputs:[ ("a", 4. *. gate) ] ~intrinsic_delay:(0.7 *. ns)
        ~drive:(inv_drive 4) ();
      make ~name:"nand2"
        ~inputs:[ ("a", gate); ("b", gate) ]
        ~intrinsic_delay:(1.4 *. ns) ~drive:(inv_drive 1) ();
      make ~name:"nor2"
        ~inputs:[ ("a", gate); ("b", gate) ]
        ~intrinsic_delay:(1.6 *. ns) ~drive:(inv_drive 1) ();
      make ~name:"buf4"
        ~inputs:[ ("a", 2. *. gate) ]
        ~intrinsic_delay:(1.2 *. ns) ~drive:Tech.Mosfet.paper_superbuffer ();
    ]
