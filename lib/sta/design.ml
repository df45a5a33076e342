type pin = { instance : string; pin : string }

type wire_shape =
  | Direct
  | Lumped of float
  | Line of { resistance : float; capacitance : float }
  | Star of { resistance : float; capacitance : float }
  | Daisy of { resistance : float; capacitance : float }

type driver_kind = Cell_output of pin | Primary of Tech.Mosfet.driver

type net = { net_name : string; driver : driver_kind; loads : pin list; wire : wire_shape }

(* one record per instance: the net on each input pin, in
   [cell.inputs] order, and the net its output drives *)
type inst = { cell : Celllib.cell; pin_nets : string option array; mutable drives : string option }

type t = {
  lib : Celllib.library;
  insts : (string, inst) Hashtbl.t;
  mutable sorted : (string * Celllib.cell) list option; (* [instances], until the next add *)
  mutable net_order : net list; (* reverse declaration order *)
  net_tbl : (string, net) Hashtbl.t;
  mutable pos : string list; (* reverse order *)
  po_set : (string, unit) Hashtbl.t;
}

let create lib =
  {
    lib;
    insts = Hashtbl.create 64;
    sorted = None;
    net_order = [];
    net_tbl = Hashtbl.create 64;
    pos = [];
    po_set = Hashtbl.create 64;
  }

let library d = d.lib

let add_instance d ~cell name =
  if Hashtbl.mem d.insts name then
    invalid_arg (Printf.sprintf "Design.add_instance: duplicate instance %S" name);
  match Celllib.find d.lib cell with
  | c ->
      d.sorted <- None;
      Hashtbl.replace d.insts name
        { cell = c; pin_nets = Array.make (List.length c.Celllib.inputs) None; drives = None }
  | exception Not_found -> invalid_arg (Printf.sprintf "Design.add_instance: unknown cell %S" cell)

let cell_of d name = (Hashtbl.find d.insts name).cell

let find_inst d instance =
  match Hashtbl.find_opt d.insts instance with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Design.add_net: unknown instance %S" instance)

let validate_load d net_name { instance; pin } =
  let i = find_inst d instance in
  match Celllib.input_index i.cell pin with
  | None ->
      invalid_arg
        (Printf.sprintf "Design.add_net: %S has no input pin %S (cell %s)" instance pin
           i.cell.Celllib.cell_name)
  | Some k -> (
      match i.pin_nets.(k) with
      | Some other ->
          invalid_arg
            (Printf.sprintf "Design.add_net: pin %s/%s already loaded by net %S" instance pin other)
      | None -> i.pin_nets.(k) <- Some net_name)

let add_net d ?(wire = Direct) ~driver ~loads name =
  if Hashtbl.mem d.net_tbl name then
    invalid_arg (Printf.sprintf "Design.add_net: duplicate net %S" name);
  (match driver with
  | Primary _ -> ()
  | Cell_output { instance; pin } ->
      let i = find_inst d instance in
      if i.cell.Celllib.output <> pin then
        invalid_arg
          (Printf.sprintf "Design.add_net: %S output pin is %S, not %S" instance
             i.cell.Celllib.output pin);
      if Option.is_some i.drives then
        invalid_arg (Printf.sprintf "Design.add_net: instance %S already drives a net" instance);
      i.drives <- Some name);
  List.iter (validate_load d name) loads;
  (match wire with
  | Direct -> ()
  | Lumped c -> if c < 0. then invalid_arg "Design.add_net: negative lumped capacitance"
  | Line { resistance; capacitance }
  | Star { resistance; capacitance }
  | Daisy { resistance; capacitance } ->
      if resistance < 0. || capacitance < 0. then
        invalid_arg "Design.add_net: negative wire values");
  let net = { net_name = name; driver; loads; wire } in
  Hashtbl.replace d.net_tbl name net;
  d.net_order <- net :: d.net_order

let mark_primary_output d name =
  if not (Hashtbl.mem d.net_tbl name) then
    invalid_arg (Printf.sprintf "Design.mark_primary_output: unknown net %S" name);
  if not (Hashtbl.mem d.po_set name) then begin
    Hashtbl.replace d.po_set name ();
    d.pos <- name :: d.pos
  end

let instances d =
  match d.sorted with
  | Some l -> l
  | None ->
      let l =
        Hashtbl.fold (fun name i acc -> (name, i.cell) :: acc) d.insts []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      d.sorted <- Some l;
      l

let nets d = List.rev d.net_order
let net d name = Hashtbl.find d.net_tbl name

let net_driven_by d instance =
  match Hashtbl.find_opt d.insts instance with
  | Some { drives = Some net; _ } -> Some (Hashtbl.find d.net_tbl net)
  | Some { drives = None; _ } | None -> None

let nets_loading d instance =
  List.filter (fun n -> List.exists (fun l -> l.instance = instance) n.loads) (nets d)

let primary_outputs d = List.rev d.pos

let check d =
  let problems = ref [] in
  let add p = problems := p :: !problems in
  List.iter
    (fun (name, _) ->
      let i = Hashtbl.find d.insts name in
      List.iteri
        (fun k (pin, _) ->
          if Option.is_none i.pin_nets.(k) then
            add (Printf.sprintf "input pin %s/%s is unconnected" name pin))
        i.cell.Celllib.inputs;
      if Option.is_none i.drives then
        add (Printf.sprintf "output of instance %s drives nothing" name))
    (instances d);
  List.iter
    (fun n ->
      if n.loads = [] && not (Hashtbl.mem d.po_set n.net_name) then
        add (Printf.sprintf "net %s has no loads and is not a primary output" n.net_name))
    (nets d);
  List.rev !problems
