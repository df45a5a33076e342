type layer = Poly | Metal | Diffusion

type segment = { layer : layer; length : float; width : float }

let segment ~layer ~length ~width =
  if width <= 0. then invalid_arg "Wire.segment: width must be positive";
  if length < 0. then invalid_arg "Wire.segment: negative length";
  { layer; length; width }

let sheet_resistance (p : Process.t) = function
  | Poly -> p.poly_sheet_resistance
  | Metal -> p.metal_sheet_resistance
  | Diffusion -> p.diffusion_sheet_resistance

let squares s = s.length /. s.width

let resistance p s = sheet_resistance p s.layer *. squares s

let capacitance p s = Process.field_capacitance_per_area p *. s.length *. s.width

let to_element ?(neglect_metal_resistance = true) p s =
  match s.layer with
  | Metal when neglect_metal_resistance -> Rctree.Element.capacitor (capacitance p s)
  | Metal | Poly | Diffusion ->
      Rctree.Element.line ~resistance:(resistance p s) ~capacitance:(capacitance p s)

(* (r, c) of one run segment; sizing keeps resistance on every layer
   (a width sweep on a "neglected" resistance would be pointless) *)
let segment_rc p ~layer ~length ~width =
  let s = segment ~layer ~length ~width in
  (resistance p s, capacitance p s)

let run_expr ?(driver = Mosfet.paper_superbuffer) p ~layer ~segment_length ~load ~widths =
  if Array.length widths = 0 then invalid_arg "Wire.run_expr: empty width profile";
  if load < 0. then invalid_arg "Wire.run_expr: negative load";
  let pieces =
    Rctree.Expr.resistor driver.Mosfet.on_resistance
    :: Rctree.Expr.capacitor driver.Mosfet.output_capacitance
    :: (Array.to_list widths
       |> List.map (fun width ->
              let r, c = segment_rc p ~layer ~length:segment_length ~width in
              Rctree.Expr.urc r c))
    @ [ Rctree.Expr.capacitor load ]
  in
  (* balanced association: Incremental edit cost is the depth, so a
     what-if on any segment re-evaluates O(log n) nodes, not O(n) *)
  Rctree.Expr.balanced_cascade pieces

let run_segment_leaf ~widths i =
  if i < 0 || i >= Array.length widths then
    invalid_arg "Wire.run_segment_leaf: segment index out of range";
  (* leaves in run_expr order: driver R, driver C, segments, load *)
  2 + i

let sizing_sweep ?(threshold = 0.5) ?driver p ~layer ~segment_length ~load ~widths
    ~segment:seg_index ~candidates =
  Obs.Span.with_ ~name:"tech.sizing_sweep" @@ fun () ->
  let h = Rctree.Incremental.of_expr (run_expr ?driver p ~layer ~segment_length ~load ~widths) in
  let path = Rctree.Incremental.leaf_path h (run_segment_leaf ~widths seg_index) in
  let queries =
    Array.map
      (fun width ->
        let r, c = segment_rc p ~layer ~length:segment_length ~width in
        [ Rctree.Incremental.Replace_leaf { path; resistance = r; capacitance = c } ])
      candidates
  in
  let ts = Rctree.Incremental.sweep h queries in
  Array.mapi
    (fun i t -> (candidates.(i), Rctree.Bounds.t_min t threshold, Rctree.Bounds.t_max t threshold))
    ts
