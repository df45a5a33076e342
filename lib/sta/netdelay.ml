let sink_label { Design.instance; pin } = instance ^ "/" ^ pin

let load_capacitance d { Design.instance; pin } =
  Celllib.input_capacitance (Design.cell_of d instance) pin

let driver_of d (net : Design.net) =
  match net.Design.driver with
  | Design.Primary drv -> drv
  | Design.Cell_output { instance; _ } -> (Design.cell_of d instance).Celllib.drive

let tree_of_net d (net : Design.net) =
  let drv = driver_of d net in
  let b = Rctree.Tree.Builder.create ~name:net.Design.net_name () in
  let root = Rctree.Tree.Builder.input b in
  let source =
    Rctree.Tree.Builder.add_resistor b ~parent:root ~name:"drv" drv.Tech.Mosfet.on_resistance
  in
  Rctree.Tree.Builder.add_capacitance b source drv.Tech.Mosfet.output_capacitance;
  let attach_sink at pin =
    Rctree.Tree.Builder.add_capacitance b at (load_capacitance d pin);
    Rctree.Tree.Builder.mark_output b ~label:(sink_label pin) at
  in
  (match (net.Design.wire, net.Design.loads) with
  | Design.Direct, loads -> List.iter (attach_sink source) loads
  | Design.Lumped c, loads ->
      Rctree.Tree.Builder.add_capacitance b source c;
      List.iter (attach_sink source) loads
  | Design.Line { resistance; capacitance }, loads ->
      let far = Rctree.Tree.Builder.add_line b ~parent:source ~name:"wire" resistance capacitance in
      List.iter (attach_sink far) loads
  | Design.Star { resistance; capacitance }, loads ->
      List.iter
        (fun pin ->
          let far =
            Rctree.Tree.Builder.add_line b ~parent:source ~name:("wire." ^ sink_label pin)
              resistance capacitance
          in
          attach_sink far pin)
        loads
  | Design.Daisy { resistance; capacitance }, loads ->
      let n = List.length loads in
      if n = 0 then
        ignore (Rctree.Tree.Builder.add_line b ~parent:source ~name:"wire" resistance capacitance)
      else begin
        let r_seg = resistance /. float_of_int n and c_seg = capacitance /. float_of_int n in
        let (_ : Rctree.Tree.node_id) =
          List.fold_left
            (fun at pin ->
              let next =
                Rctree.Tree.Builder.add_line b ~parent:at ~name:("tap." ^ sink_label pin) r_seg
                  c_seg
              in
              attach_sink next pin;
              next)
            source loads
        in
        ()
      end);
  if net.Design.loads = [] then begin
    let snapshot = Rctree.Tree.Builder.finish b in
    (* deepest node = far end of whatever wire exists *)
    let far = Rctree.Tree.node_count snapshot - 1 in
    Rctree.Tree.Builder.mark_output b ~label:(net.Design.net_name ^ ".end") far
  end;
  Rctree.Tree.Builder.finish b

let load_capacitance d (net : Design.net) =
  let drv = driver_of d net in
  let tree = tree_of_net d net in
  Rctree.Tree.total_capacitance tree -. drv.Tech.Mosfet.output_capacitance

type sink_delay = { sink : Design.pin; elmore : float; window : float * float }

(* one all-node pass per net; [tree_of_net] marks one output per load,
   in load-list order, so the two lists pair up *)
let sink_delays ?(threshold = 0.5) d (net : Design.net) =
  match net.Design.loads with
  | [] -> []
  | loads ->
      let h = Rctree.Analysis.make (tree_of_net d net) in
      List.map2
        (fun sink (_, id) ->
          let ts = Rctree.Analysis.times h ~output:(`Id id) in
          let window = (Rctree.Bounds.t_min ts threshold, Rctree.Bounds.t_max ts threshold) in
          { sink; elmore = ts.Rctree.Times.t_d; window })
        loads (Rctree.Analysis.outputs h)

let all_sink_delays ?pool ?threshold d =
  Obs.Span.with_ ~name:"sta.netdelay_batch" @@ fun () ->
  Parallel.Pool.map_list ?pool
    (fun (net : Design.net) -> (net.Design.net_name, sink_delays ?threshold d net))
    (Design.nets d)

let worst_window ?(threshold = 0.5) d net =
  let h = Rctree.Analysis.make (tree_of_net d net) in
  match Array.to_list (Rctree.Analysis.all_delay_bounds h ~threshold) with
  | [] -> (0., 0.)
  | (_, _, first) :: rest ->
      List.fold_left (fun (lo, hi) (_, _, (l, h)) -> (Float.min lo l, Float.max hi h)) first rest
