type params = {
  gate_width : float;
  gate_length : float;
  segment_length : float;
  wire_width : float;
  minterms_per_section : int;
}

let default_params (p : Process.t) =
  let f = p.Process.feature_size in
  {
    gate_width = f;
    gate_length = f;
    segment_length = 6. *. f;
    wire_width = f;
    minterms_per_section = 2;
  }

let expr_of_element e =
  Rctree.Expr.urc (Rctree.Element.resistance e) (Rctree.Element.capacitance e)

let section p params =
  let wire =
    Wire.segment ~layer:Wire.Poly ~length:params.segment_length ~width:params.wire_width
  in
  let wire_elem = Wire.to_element p wire in
  (* the gate crossing: poly resistance of the channel-length run, gate
     oxide capacitance underneath *)
  let gate_resistance =
    Wire.resistance p
      (Wire.segment ~layer:Wire.Poly ~length:params.gate_length ~width:params.gate_width)
  in
  let gate_capacitance = Mosfet.gate_load p ~width:params.gate_width ~length:params.gate_length in
  Rctree.Expr.wc (expr_of_element wire_elem)
    (Rctree.Expr.urc gate_resistance gate_capacitance)

let line_expr ?(driver = Mosfet.paper_superbuffer) p params ~minterms =
  if minterms < 0 then invalid_arg "Pla.line_expr: negative minterm count";
  if params.minterms_per_section <= 0 then
    invalid_arg "Pla.line_expr: minterms_per_section must be positive";
  let sec = section p params in
  let start =
    Rctree.Expr.wc
      (Rctree.Expr.resistor driver.Mosfet.on_resistance)
      (Rctree.Expr.capacitor driver.Mosfet.output_capacitance)
  in
  let rec attach acc remaining =
    if remaining <= 0 then acc
    else attach (Rctree.Expr.wc acc sec) (remaining - params.minterms_per_section)
  in
  attach start minterms

let line_tree ?driver p params ~minterms =
  Rctree.Convert.tree_of_expr ~name:(Printf.sprintf "pla-%d" minterms)
    (line_expr ?driver p params ~minterms)

let delay_bounds ?(threshold = 0.7) ?driver p params ~minterms =
  let ts = Rctree.Expr.times (line_expr ?driver p params ~minterms) in
  (Rctree.Bounds.t_min ts threshold, Rctree.Bounds.t_max ts threshold)

let paper_line ~minterms = Rctree.Expr.pla_line minterms

(* The sweep used to evaluate every count from scratch — O(Σ nᵢ) URC
   ops.  A line for n+per minterms is the n-minterm line with one more
   section grafted at the root, so the incremental engine re-evaluates
   one cascade node per section: the whole sweep now costs O(max n)
   ops total.  The grafts replay exactly the left-fold of [line_expr],
   so every (n, t_min, t_max) is bit-identical to the from-scratch
   result (regression-tested). *)
let sweep ?(threshold = 0.7) ?(driver = Mosfet.paper_superbuffer) p params ~minterms =
  Obs.Span.with_ ~name:"tech.pla_sweep" @@ fun () ->
  if List.exists (fun n -> n < 0) minterms then
    invalid_arg "Pla.sweep: negative minterm count";
  if params.minterms_per_section <= 0 then
    invalid_arg "Pla.sweep: minterms_per_section must be positive";
  let per = params.minterms_per_section in
  let sections_for n = if n <= 0 then 0 else (n + per - 1) / per in
  let sec = section p params in
  let start =
    Rctree.Expr.wc
      (Rctree.Expr.resistor driver.Mosfet.on_resistance)
      (Rctree.Expr.capacitor driver.Mosfet.output_capacitance)
  in
  let times_at = Hashtbl.create 16 in
  let h = ref (Rctree.Incremental.of_expr start) in
  let built = ref 0 in
  List.iter
    (fun s ->
      while !built < s do
        h := Rctree.Incremental.apply !h (Rctree.Incremental.Graft { path = []; expr = sec });
        incr built
      done;
      Hashtbl.replace times_at s (Rctree.Incremental.times !h))
    (List.sort_uniq compare (List.map sections_for minterms));
  List.map
    (fun n ->
      let ts = Hashtbl.find times_at (sections_for n) in
      (n, Rctree.Bounds.t_min ts threshold, Rctree.Bounds.t_max ts threshold))
    minterms
