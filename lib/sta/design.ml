type pin = { instance : string; pin : string }

type wire_shape =
  | Direct
  | Lumped of float
  | Line of { resistance : float; capacitance : float }
  | Star of { resistance : float; capacitance : float }
  | Daisy of { resistance : float; capacitance : float }

type driver_kind = Cell_output of pin | Primary of Tech.Mosfet.driver

type net = { net_name : string; driver : driver_kind; loads : pin list; wire : wire_shape }

module Tbl = Hashtbl.Make (String)

(* Instances and nets are numbered as they are added, loads net by net in
   load-list order, so net [i] owns loads [first_load.(i) ..
   first_load.(i + 1) - 1].  Instance [u] owns the slots [first_pin ..]
   of [pin_load], one per input pin in [cell.inputs] order, holding the
   load on the pin: -1 when open, [-2 - f] when claimed by the [f]-th
   failed [add_net] (its claims stay, named in [failed]).  [drives] is
   the net the output drives: -1 for none, -2 for a failed [add_net]. *)
type inst = { name : string; cell : Celllib.cell; first_pin : int; mutable drives : int }

type t = {
  lib : Celllib.library;
  inst_ids : int Tbl.t;
  mutable insts : inst array;
  mutable n_insts : int;
  mutable pin_load : int array;
  mutable n_pins : int;
  mutable sorted : int array option; (* instance ids by name, until the next add *)
  net_ids : int Tbl.t;
  mutable nets : net array;
  mutable n_nets : int;
  mutable first_load : int array; (* n_nets + 1 entries *)
  mutable driver_inst : int array; (* net -> driving instance; -1 for a primary input *)
  mutable load_inst : int array;
  mutable load_pin : int array; (* load -> input pin position on [load_inst] *)
  mutable failed : string list; (* names of failed [add_net]s, newest first *)
  mutable pos : int list; (* reverse marking order *)
  mutable is_po : bool array;
}

(* [a] if index [n] fits, else a copy twice as large, padded with [x] *)
let grow a n x =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 8 (2 * Array.length a)) x in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let create lib =
  {
    lib;
    inst_ids = Tbl.create 1024;
    insts = [||];
    n_insts = 0;
    pin_load = [||];
    n_pins = 0;
    sorted = None;
    net_ids = Tbl.create 1024;
    nets = [||];
    n_nets = 0;
    first_load = [| 0 |];
    driver_inst = [||];
    load_inst = [||];
    load_pin = [||];
    failed = [];
    pos = [];
    is_po = [||];
  }

let library d = d.lib

let add_instance d ~cell name =
  if Tbl.mem d.inst_ids name then
    invalid_arg (Printf.sprintf "Design.add_instance: duplicate instance %S" name);
  match Celllib.find d.lib cell with
  | c ->
      let i = { name; cell = c; first_pin = d.n_pins; drives = -1 } in
      d.insts <- grow d.insts d.n_insts i;
      d.insts.(d.n_insts) <- i;
      Tbl.add d.inst_ids name d.n_insts;
      d.n_insts <- d.n_insts + 1;
      List.iter
        (fun _ ->
          d.pin_load <- grow d.pin_load d.n_pins (-1);
          d.pin_load.(d.n_pins) <- -1;
          d.n_pins <- d.n_pins + 1)
        c.Celllib.inputs;
      d.sorted <- None
  | exception Not_found -> invalid_arg (Printf.sprintf "Design.add_instance: unknown cell %S" cell)

let instance_count d = d.n_insts
let instance_id d name = Tbl.find d.inst_ids name
let instance_name d u = d.insts.(u).name
let instance_cell d u = d.insts.(u).cell
let pin_load d u k = d.pin_load.(d.insts.(u).first_pin + k)
let driven_net d u = d.insts.(u).drives
let cell_of d name = d.insts.(instance_id d name).cell
let net_count d = d.n_nets
let net_id d name = Tbl.find d.net_ids name
let net_of_id d i = d.nets.(i)
let driver_instance d i = d.driver_inst.(i)
let first_load d i = d.first_load.(i)
let load_instance d l = d.load_inst.(l)
let load_pin d l = d.load_pin.(l)

(* the net owning committed load [l]: the last [i] with first_load.(i) <= l *)
let load_net d l =
  let rec search lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if d.first_load.(mid) <= l then search mid hi else search lo mid
  in
  search 0 d.n_nets

let find_inst d instance =
  match Tbl.find_opt d.inst_ids instance with
  | Some u -> u
  | None -> invalid_arg (Printf.sprintf "Design.add_net: unknown instance %S" instance)

(* the name of the net holding claim [v] on a pin, [pending] for a load
   of the net being added *)
let claimant d ~pending v =
  if v >= d.first_load.(d.n_nets) then pending
  else if v >= 0 then d.nets.(load_net d v).net_name
  else List.nth d.failed (List.length d.failed - 1 - (-2 - v))

(* claims the pin as load [l], recording it *)
let claim d net_name l { instance; pin } =
  let u = find_inst d instance in
  let i = d.insts.(u) in
  match Celllib.input_index i.cell pin with
  | None ->
      invalid_arg
        (Printf.sprintf "Design.add_net: %S has no input pin %S (cell %s)" instance pin
           i.cell.Celllib.cell_name)
  | Some k ->
      let v = d.pin_load.(i.first_pin + k) in
      if v <> -1 then
        invalid_arg
          (Printf.sprintf "Design.add_net: pin %s/%s already loaded by net %S" instance pin
             (claimant d ~pending:net_name v));
      d.pin_load.(i.first_pin + k) <- l;
      d.load_inst <- grow d.load_inst l u;
      d.load_pin <- grow d.load_pin l k;
      d.load_inst.(l) <- u;
      d.load_pin.(l) <- k

let check_wire = function
  | Direct -> ()
  | Lumped c -> if c < 0. then invalid_arg "Design.add_net: negative lumped capacitance"
  | Line { resistance; capacitance }
  | Star { resistance; capacitance }
  | Daisy { resistance; capacitance } ->
      if resistance < 0. || capacitance < 0. then
        invalid_arg "Design.add_net: negative wire values"

let add_net d ?(wire = Direct) ~driver ~loads name =
  if Tbl.mem d.net_ids name then invalid_arg (Printf.sprintf "Design.add_net: duplicate net %S" name);
  let id = d.n_nets and base = d.first_load.(d.n_nets) in
  let src = ref (-1) and next = ref base in
  match
    (match driver with
    | Primary _ -> ()
    | Cell_output { instance; pin } ->
        let u = find_inst d instance in
        let i = d.insts.(u) in
        if i.cell.Celllib.output <> pin then
          invalid_arg
            (Printf.sprintf "Design.add_net: %S output pin is %S, not %S" instance
               i.cell.Celllib.output pin);
        if i.drives <> -1 then
          invalid_arg (Printf.sprintf "Design.add_net: instance %S already drives a net" instance);
        i.drives <- id;
        src := u);
    List.iter
      (fun p ->
        claim d name !next p;
        incr next)
      loads;
    check_wire wire
  with
  | () ->
      let net = { net_name = name; driver; loads; wire } in
      d.nets <- grow d.nets id net;
      d.nets.(id) <- net;
      d.driver_inst <- grow d.driver_inst id !src;
      d.driver_inst.(id) <- !src;
      d.is_po <- grow d.is_po id false;
      d.is_po.(id) <- false;
      d.first_load <- grow d.first_load (id + 1) 0;
      d.first_load.(id + 1) <- !next;
      Tbl.add d.net_ids name id;
      d.n_nets <- id + 1
  | exception (Invalid_argument _ as e) ->
      (* what was checked stays claimed, by a net that does not exist *)
      let mark = -2 - List.length d.failed in
      d.failed <- name :: d.failed;
      if !src >= 0 then d.insts.(!src).drives <- -2;
      for l = base to !next - 1 do
        d.pin_load.(d.insts.(d.load_inst.(l)).first_pin + d.load_pin.(l)) <- mark
      done;
      raise e

let mark_primary_output d name =
  match Tbl.find_opt d.net_ids name with
  | None -> invalid_arg (Printf.sprintf "Design.mark_primary_output: unknown net %S" name)
  | Some i ->
      if not d.is_po.(i) then begin
        d.is_po.(i) <- true;
        d.pos <- i :: d.pos
      end

let sorted_instance_ids d =
  match d.sorted with
  | Some ids -> ids
  | None ->
      let ids = Array.init d.n_insts Fun.id in
      Array.sort (fun a b -> String.compare d.insts.(a).name d.insts.(b).name) ids;
      d.sorted <- Some ids;
      ids

let instances d =
  Array.fold_right (fun u acc -> (d.insts.(u).name, d.insts.(u).cell) :: acc) (sorted_instance_ids d) []

let nets d = List.init d.n_nets (fun i -> d.nets.(i))
let net d name = d.nets.(net_id d name)

let net_driven_by d instance =
  match Tbl.find_opt d.inst_ids instance with
  | Some u when d.insts.(u).drives >= 0 -> Some d.nets.(d.insts.(u).drives)
  | Some _ | None -> None

let nets_loading d instance =
  List.filter (fun n -> List.exists (fun l -> l.instance = instance) n.loads) (nets d)

let primary_output_ids d = List.rev d.pos
let primary_outputs d = List.rev_map (fun i -> d.nets.(i).net_name) d.pos

let check d =
  let problems = ref [] in
  let add p = problems := p :: !problems in
  Array.iter
    (fun u ->
      let i = d.insts.(u) in
      List.iteri
        (fun k (pin, _) ->
          if d.pin_load.(i.first_pin + k) = -1 then
            add (Printf.sprintf "input pin %s/%s is unconnected" i.name pin))
        i.cell.Celllib.inputs;
      if i.drives = -1 then add (Printf.sprintf "output of instance %s drives nothing" i.name))
    (sorted_instance_ids d);
  for i = 0 to d.n_nets - 1 do
    if d.nets.(i).loads = [] && not d.is_po.(i) then
      add (Printf.sprintf "net %s has no loads and is not a primary output" d.nets.(i).net_name)
  done;
  List.rev !problems
