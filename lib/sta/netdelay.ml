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
  (* each shape returns the deepest node it added: the far end of the
     wire, which a loadless net marks as its output *)
  let far =
    match (net.Design.wire, net.Design.loads) with
    | Design.Direct, loads ->
        List.iter (attach_sink source) loads;
        source
    | Design.Lumped c, loads ->
        Rctree.Tree.Builder.add_capacitance b source c;
        List.iter (attach_sink source) loads;
        source
    | Design.Line { resistance; capacitance }, loads
    | Design.Daisy { resistance; capacitance }, ([] as loads) ->
        let far =
          Rctree.Tree.Builder.add_line b ~parent:source ~name:"wire" resistance capacitance
        in
        List.iter (attach_sink far) loads;
        far
    | Design.Star { resistance; capacitance }, loads ->
        List.fold_left
          (fun _ pin ->
            let far =
              Rctree.Tree.Builder.add_line b ~parent:source ~name:("wire." ^ sink_label pin)
                resistance capacitance
            in
            attach_sink far pin;
            far)
          source loads
    | Design.Daisy { resistance; capacitance }, loads ->
        let n = float_of_int (List.length loads) in
        let r_seg = resistance /. n and c_seg = capacitance /. n in
        List.fold_left
          (fun at pin ->
            let next =
              Rctree.Tree.Builder.add_line b ~parent:at ~name:("tap." ^ sink_label pin) r_seg c_seg
            in
            attach_sink next pin;
            next)
          source loads
  in
  if net.Design.loads = [] then
    Rctree.Tree.Builder.mark_output b ~label:(net.Design.net_name ^ ".end") far;
  Rctree.Tree.Builder.finish b

type sink_delay = { sink : Design.pin; elmore : float; window : float * float }

type figures = {
  sinks : sink_delay array;
  far_end : float * float;
  far_end_elmore : float Lazy.t;
  load : float;
}

(* [tree_of_net] marks one output per load, in load-list order, so
   outputs and loads pair up; a loadless net's one output is its far end *)
let figures ?(threshold = 0.5) d (net : Design.net) =
  let tree = tree_of_net d net in
  let h = Rctree.Analysis.make tree in
  let outputs = Array.of_list (Rctree.Analysis.outputs h) in
  let window id =
    let ts = Rctree.Analysis.times h ~output:(`Id id) in
    (ts, (Rctree.Bounds.t_min ts threshold, Rctree.Bounds.t_max ts threshold))
  in
  let sink k pin =
    let ts, window = window (snd outputs.(k)) in
    { sink = pin; elmore = ts.Rctree.Times.t_d; window }
  in
  let sinks = Array.of_list (List.mapi sink net.Design.loads) in
  {
    sinks;
    far_end = (if Array.length sinks = 0 then snd (window (snd outputs.(0))) else (0., 0.));
    far_end_elmore = lazy (Rctree.Moments.elmore tree ~output:(snd outputs.(0)));
    load = Rctree.Tree.total_capacitance tree -. (driver_of d net).Tech.Mosfet.output_capacitance;
  }

let load_capacitance d net = (figures d net).load

let sink_delays ?threshold d (net : Design.net) =
  if net.Design.loads = [] then [] else Array.to_list (figures ?threshold d net).sinks

let worst_window ?threshold d net =
  match figures ?threshold d net with
  | { sinks = [||]; far_end; _ } -> far_end
  | { sinks; _ } ->
      Array.fold_left
        (fun (lo, hi) { window = l, h; _ } -> (Float.min lo l, Float.max hi h))
        sinks.(0).window sinks

let all_sink_delays ?pool ?threshold d =
  Obs.Span.with_ ~name:"sta.netdelay_batch" @@ fun () ->
  Parallel.Pool.map_list ?pool
    (fun (net : Design.net) -> (net.Design.net_name, sink_delays ?threshold d net))
    (Design.nets d)
