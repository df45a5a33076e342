(* The paper's motivating circuit (Figs. 1 and 2): an inverter drives
   three gates, A, B and C, through a mix of metal and polysilicon.

   - the pullup is linearized to a resistor (superbuffer driver);
   - metal keeps its capacitance but its resistance is neglected;
   - poly runs are distributed RC lines;
   - each driven gate is a lumped capacitance.

   The example builds the network from geometry, prints per-output
   characteristic times and 50% delay windows, validates them against
   the exact simulator, and shows the deck round-trip.

   Run with: dune exec examples/fanout_bus.exe *)

let micron = 1e-6

let () =
  let p = Tech.Process.default_4um in
  let drv = Tech.Mosfet.paper_superbuffer in
  let gate = Tech.Mosfet.minimum_gate_load p in
  let poly len = Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:len ~width:(4. *. micron) in
  let metal len = Tech.Wire.segment ~layer:Tech.Wire.Metal ~length:len ~width:(8. *. micron) in

  let b = Rctree.Tree.Builder.create ~name:"fanout-bus" () in
  let input = Rctree.Tree.Builder.input b in
  (* the driver: linearized pullup + its output parasitics *)
  let root = Rctree.Tree.Builder.add_resistor b ~parent:input ~name:"drv" drv.Tech.Mosfet.on_resistance in
  Rctree.Tree.Builder.add_capacitance b root drv.Tech.Mosfet.output_capacitance;
  (* a 400 um metal bus along the cell row: pure capacitance *)
  Rctree.Tree.Builder.add_capacitance b root
    (Tech.Wire.capacitance p (metal (400. *. micron)));
  (* gate A hangs at the end of a short 100 um poly run *)
  let seg_a = poly (100. *. micron) in
  let a =
    Rctree.Tree.Builder.add_line b ~parent:root ~name:"a"
      (Tech.Wire.resistance p seg_a) (Tech.Wire.capacitance p seg_a)
  in
  Rctree.Tree.Builder.add_capacitance b a gate;
  Rctree.Tree.Builder.mark_output b ~label:"gateA" a;
  (* gates B and C share a longer poly trunk that then splits *)
  let trunk = poly (300. *. micron) in
  let t =
    Rctree.Tree.Builder.add_line b ~parent:root ~name:"trunk"
      (Tech.Wire.resistance p trunk) (Tech.Wire.capacitance p trunk)
  in
  let seg_b = poly (150. *. micron) in
  let bnode =
    Rctree.Tree.Builder.add_line b ~parent:t ~name:"b"
      (Tech.Wire.resistance p seg_b) (Tech.Wire.capacitance p seg_b)
  in
  Rctree.Tree.Builder.add_capacitance b bnode (2. *. gate);
  Rctree.Tree.Builder.mark_output b ~label:"gateB" bnode;
  let seg_c = poly (250. *. micron) in
  let cnode =
    Rctree.Tree.Builder.add_line b ~parent:t ~name:"c"
      (Tech.Wire.resistance p seg_c) (Tech.Wire.capacitance p seg_c)
  in
  Rctree.Tree.Builder.add_capacitance b cnode gate;
  Rctree.Tree.Builder.mark_output b ~label:"gateC" cnode;
  let tree = Rctree.Tree.Builder.finish b in

  (match Rctree.Validate.problems tree with
  | [] -> print_endline "network validates clean\n"
  | ps -> List.iter (fun p -> print_endline (Rctree.Validate.problem_to_string p)) ps);

  let fmt t = Rctree.Units.format_quantity ~unit_symbol:"s" t in
  let table =
    Reprolib.Table.create ~columns:[ "output"; "T_De"; "tmin@0.5"; "tmax@0.5"; "exact"; "inside" ]
  in
  let h = Rctree.Analysis.make tree in
  Array.iter
    (fun (label, id, ts) ->
      let lo, hi = Rctree.Analysis.delay_bounds h ~output:(`Id id) ~threshold:0.5 in
      let exact = Circuit.Measure.exact_delay tree ~output:id ~threshold:0.5 in
      Reprolib.Table.add_row table
        [
          label;
          fmt ts.Rctree.Times.t_d;
          fmt lo;
          fmt hi;
          fmt exact;
          string_of_bool (lo <= exact && exact <= hi);
        ])
    (Rctree.Analysis.all_times h);
  Reprolib.Table.print table;

  (* certification at a 5 ns budget, the paper's third use case *)
  print_newline ();
  Array.iter
    (fun (label, _, verdict) ->
      Printf.printf "settled at %s by 5 ns: %s\n" label (Rctree.Bounds.verdict_to_string verdict))
    (Rctree.Analysis.all_certify h ~threshold:0.5 ~deadline:5e-9);

  (* the network as a SPICE deck (interchange format) *)
  print_newline ();
  print_string (Spice.Printer.to_string tree)
