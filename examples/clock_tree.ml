(* Clock distribution: a balanced H-tree with a deliberate imbalance.

   An H-tree delivers a clock to 8 leaf regions through three levels of
   branching poly/metal interconnect.  Because all outputs live in one
   RC tree, the Penfield-Rubinstein bounds give a *certified skew
   window*: leaf i receives the edge within [tmin_i, tmax_i], so the
   worst-case skew between any two leaves is bounded by
   max_i tmax_i - min_j tmin_j.

   One leaf is loaded with an extra gate (a tap for a test structure),
   which shows up immediately in its window.

   Run with: dune exec examples/clock_tree.exe *)

let micron = 1e-6

let () =
  let p = Tech.Process.default_4um in
  let drv = Tech.Mosfet.paper_superbuffer in
  let gate = Tech.Mosfet.minimum_gate_load p in
  let b = Rctree.Tree.Builder.create ~name:"h-tree" () in
  let input = Rctree.Tree.Builder.input b in
  let root =
    Rctree.Tree.Builder.add_resistor b ~parent:input ~name:"drv" drv.Tech.Mosfet.on_resistance
  in
  Rctree.Tree.Builder.add_capacitance b root drv.Tech.Mosfet.output_capacitance;

  (* each level halves the segment length; widths taper too *)
  let segment level =
    let length = 800. *. micron /. Float.pow 2. (float_of_int level) in
    let width = Float.max (4. *. micron) (16. *. micron /. Float.pow 2. (float_of_int level)) in
    Tech.Wire.segment ~layer:Tech.Wire.Poly ~length ~width
  in
  let rec grow parent level path =
    if level > 3 then begin
      (* leaf: local clock load of four minimum gates *)
      Rctree.Tree.Builder.add_capacitance b parent (4. *. gate);
      Rctree.Tree.Builder.mark_output b ~label:("leaf" ^ path) parent
    end
    else begin
      let seg = segment level in
      let r = Tech.Wire.resistance p seg and c = Tech.Wire.capacitance p seg in
      let left = Rctree.Tree.Builder.add_line b ~parent ~name:(path ^ "L" ^ string_of_int level) r c in
      let right = Rctree.Tree.Builder.add_line b ~parent ~name:(path ^ "R" ^ string_of_int level) r c in
      grow left (level + 1) (path ^ "0");
      grow right (level + 1) (path ^ "1")
    end
  in
  grow root 1 "";
  let tree = Rctree.Tree.Builder.finish b in

  (* imbalance: leaf111 carries an extra test tap *)
  let tapped = Rctree.Tree.output_named tree "leaf111" in

  let fmt t = Printf.sprintf "%.4f" (t *. 1e9) in
  let report tree title =
    Printf.printf "%s\n" title;
    let table = Reprolib.Table.create ~columns:[ "leaf"; "tmin(ns)"; "tmax(ns)"; "elmore(ns)" ] in
    let lo_all = ref infinity and hi_all = ref neg_infinity in
    let h = Rctree.Analysis.make tree in
    Array.iter
      (fun (label, id, ts) ->
        let lo, hi = Rctree.Analysis.delay_bounds h ~output:(`Id id) ~threshold:0.5 in
        lo_all := Float.min !lo_all lo;
        hi_all := Float.max !hi_all hi;
        Reprolib.Table.add_row table [ label; fmt lo; fmt hi; fmt ts.Rctree.Times.t_d ])
      (Rctree.Analysis.all_times h);
    Reprolib.Table.print table;
    Printf.printf "certified skew bound: %.4f ns\n" ((!hi_all -. !lo_all) *. 1e9);
    Printf.printf
      "(the lower bounds collapse to 0 here: with 8 leaves, T_P is ~8x T_De per leaf,\n\
      \ and the paper notes its bounds are tight when most resistance is in the driver)\n\n"
  in
  report tree "balanced H-tree (8 leaves):";

  (* rebuild with the tap — Builder is reusable, but the frozen tree is
     immutable, so modify via a fresh builder copy of the same network *)
  let b2 = Rctree.Tree.Builder.create ~name:"h-tree-tapped" () in
  let mapping = Array.make (Rctree.Tree.node_count tree) (-1) in
  mapping.(Rctree.Tree.input tree) <- Rctree.Tree.Builder.input b2;
  Rctree.Tree.iter_nodes tree ~f:(fun id ->
      match Rctree.Tree.parent tree id with
      | None -> ()
      | Some parent ->
          let name = Rctree.Tree.node_name tree id in
          let nid =
            match Rctree.Tree.element tree id with
            | Some (Rctree.Element.Resistor r) ->
                Rctree.Tree.Builder.add_resistor b2 ~parent:mapping.(parent) ~name r
            | Some (Rctree.Element.Line { resistance; capacitance }) ->
                Rctree.Tree.Builder.add_line b2 ~parent:mapping.(parent) ~name resistance capacitance
            | Some (Rctree.Element.Capacitor _) | None -> assert false
          in
          mapping.(id) <- nid;
          Rctree.Tree.Builder.add_capacitance b2 nid (Rctree.Tree.capacitance tree id));
  List.iter (fun (label, id) -> Rctree.Tree.Builder.mark_output b2 ~label mapping.(id))
    (Rctree.Tree.outputs tree);
  (* the extra tap: 60 um of minimum-width poly to two gates *)
  let tap_seg = Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:(60. *. micron) ~width:(4. *. micron) in
  let tap =
    Rctree.Tree.Builder.add_line b2 ~parent:mapping.(tapped) ~name:"tap"
      (Tech.Wire.resistance p tap_seg) (Tech.Wire.capacitance p tap_seg)
  in
  Rctree.Tree.Builder.add_capacitance b2 tap (2. *. gate);
  let tree2 = Rctree.Tree.Builder.finish b2 in
  report tree2 "same tree with a test tap on leaf111:";

  (* sanity: the certified window really contains the exact skew.
     Discretize once and reuse one eigendecomposition for all leaves. *)
  let lumped = Rctree.Lump.discretize ~segments:8 tree2 in
  let exact_solver = Circuit.Exact.of_tree lumped in
  let ds =
    List.map
      (fun (label, _) ->
        Circuit.Exact.delay exact_solver ~node:(Rctree.Tree.output_named lumped label)
          ~threshold:0.5)
      (Rctree.Tree.outputs lumped)
  in
  let skew = List.fold_left Float.max neg_infinity ds -. List.fold_left Float.min infinity ds in
  Printf.printf "exact skew (simulator): %.4f ns\n" (skew *. 1e9)
