let sink_label { Design.instance; pin } = instance ^ "/" ^ pin

let pin_capacitance d { Design.instance; pin } =
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
    Rctree.Tree.Builder.add_capacitance b at (pin_capacitance d pin);
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

(* One net's tree as [tree_of_net] would build it, laid out node by
   node in flat arrays reused from net to net and summed by
   [Rctree.Moments.sums_into]: [parent], the edge resistance [r], lumped
   [c], the line capacitance [cl] of a line edge, the pass's R_kk, T_De
   and T_Re, and its T_P.  [sinks.(k)] is the node of the net's k-th
   load. *)
type scratch = {
  mutable n : int;
  mutable parent : int array;
  mutable r : float array;
  mutable c : float array;
  mutable cl : float array;
  mutable rkk : float array;
  mutable td : float array;
  mutable tr : float array;
  mutable sinks : int array;
  mutable t_p : float;
}

let scratch () =
  { n = 0; parent = [||]; r = [||]; c = [||]; cl = [||]; rkk = [||]; td = [||]; tr = [||];
    sinks = [||]; t_p = 0. }

let reserve s nodes =
  if Array.length s.parent < nodes then begin
    let f () = Array.make (2 * nodes) 0. in
    s.parent <- Array.make (2 * nodes) 0;
    s.sinks <- Array.make (2 * nodes) 0;
    s.r <- f (); s.c <- f (); s.cl <- f (); s.rkk <- f (); s.td <- f (); s.tr <- f ()
  end

let add_edge s parent r cl =
  let id = s.n in
  s.parent.(id) <- parent;
  s.r.(id) <- r;
  s.c.(id) <- 0.;
  s.cl.(id) <- cl;
  s.n <- id + 1;
  id

let add_cap s id c =
  ignore (Rctree.Element.capacitor c : Rctree.Element.t) (* its check *);
  s.c.(id) <- s.c.(id) +. c

(* as [Tree.Builder.add_line] adds what [Element.line] makes of a wire:
   an edge, or the capacitance of a line without R folded into [parent] *)
let add s parent = function
  | Rctree.Element.Resistor r -> add_edge s parent r 0.
  | Rctree.Element.Line { resistance; capacitance } -> add_edge s parent resistance capacitance
  | Rctree.Element.Capacitor c ->
      add_cap s parent c;
      parent

(* lays out and sums the tree of a net driven by [drv] through [wire]
   into [loads] pins, the k-th of capacitance [pin_cap k]; returns the
   far end of the wire *)
let analyse s (drv : Tech.Mosfet.driver) wire ~loads ~pin_cap =
  reserve s (loads + 3);
  s.n <- 0;
  ignore (add_edge s (-1) 0. 0.);
  let source = add s 0 (Rctree.Element.resistor drv.Tech.Mosfet.on_resistance) in
  add_cap s source drv.Tech.Mosfet.output_capacitance;
  let line at resistance capacitance = add s at (Rctree.Element.line ~resistance ~capacitance) in
  let attach at k =
    add_cap s at (pin_cap k);
    s.sinks.(k) <- at
  in
  let far =
    match wire with
    | Design.Direct -> source
    | Design.Lumped c ->
        add_cap s source c;
        source
    | Design.Line { resistance; capacitance } -> line source resistance capacitance
    | Design.Daisy { resistance; capacitance } when loads = 0 -> line source resistance capacitance
    | Design.Star _ | Design.Daisy _ -> source
  in
  (match wire with
  | Design.Direct | Design.Lumped _ | Design.Line _ ->
      for k = 0 to loads - 1 do
        attach far k
      done
  | Design.Star { resistance; capacitance } ->
      for k = 0 to loads - 1 do
        attach (line source resistance capacitance) k
      done
  | Design.Daisy { resistance; capacitance } ->
      let n = float_of_int loads in
      let r_seg = resistance /. n and c_seg = capacitance /. n in
      let at = ref source in
      for k = 0 to loads - 1 do
        at := line !at r_seg c_seg;
        attach !at k
      done);
  s.t_p <-
    Rctree.Moments.sums_into ~n:s.n ~parent:s.parent ~r:s.r ~c:s.c ~cl:s.cl ~rkk:s.rkk ~t_d:s.td
      ~t_r:s.tr;
  far

(* [Rctree.Tree.total_capacitance] less the driver's own *)
let load_of s (drv : Tech.Mosfet.driver) =
  let acc = ref 0. in
  for id = 0 to s.n - 1 do
    acc := !acc +. s.c.(id) +. s.cl.(id)
  done;
  !acc -. drv.Tech.Mosfet.output_capacitance

let times s id = Rctree.Times.make ~t_p:s.t_p ~t_d:s.td.(id) ~t_r:s.tr.(id)

(* a value that a net's layout or figures reject names the net *)
let refuse (net : Design.net) msg =
  invalid_arg (Printf.sprintf "net %S: %s" net.Design.net_name msg)

(* [far_end_elmore]: every node of a loadless net lies on the path to
   its far end, whose Elmore delay is therefore T_P, summed in the order
   of the per-output [Rctree.Moments.elmore] *)
let figures ?(threshold = 0.5) d (net : Design.net) =
  let s = scratch () and drv = driver_of d net and pins = Array.of_list net.Design.loads in
  try
    let far =
      analyse s drv net.Design.wire ~loads:(Array.length pins) ~pin_cap:(fun k ->
          pin_capacitance d pins.(k))
    in
    let window ts = (Rctree.Bounds.t_min ts threshold, Rctree.Bounds.t_max ts threshold) in
    let sinks =
      Array.mapi
        (fun k pin ->
          let ts = times s s.sinks.(k) in
          { sink = pin; elmore = ts.Rctree.Times.t_d; window = window ts })
        pins
    in
    let loadless = pins = [||] in
    {
      sinks;
      far_end = (if loadless then window (times s far) else (0., 0.));
      far_end_elmore = Lazy.from_val (if loadless then s.t_p else 0.);
      load = load_of s drv;
    }
  with Invalid_argument msg -> refuse net msg

type table = {
  elmore : float array;
  t_min : float array;
  t_max : float array;
  far_min : float array;
  far_max : float array;
  far_elmore : float array;
  loads : float array;
}

let all_figures ?(threshold = 0.5) d =
  let nets = Design.net_count d and n_loads = Design.first_load d (Design.net_count d) in
  let per_load () = Array.make n_loads 0. and per_net () = Array.make nets 0. in
  let t =
    { elmore = per_load (); t_min = per_load (); t_max = per_load (); far_min = per_net ();
      far_max = per_net (); far_elmore = per_net (); loads = per_net () }
  in
  let s = scratch () in
  let net_figures i (net : Design.net) =
    let drv =
      match net.Design.driver with
      | Design.Primary drv -> drv
      | Design.Cell_output _ -> (Design.instance_cell d (Design.driver_instance d i)).Celllib.drive
    in
    let first = Design.first_load d i and last = Design.first_load d (i + 1) in
    let pin_cap k =
      let l = first + k in
      let inputs = (Design.instance_cell d (Design.load_instance d l)).Celllib.inputs in
      snd (List.nth inputs (Design.load_pin d l))
    in
    let far = analyse s drv net.Design.wire ~loads:(last - first) ~pin_cap in
    for l = first to last - 1 do
      let ts = times s s.sinks.(l - first) in
      t.elmore.(l) <- ts.Rctree.Times.t_d;
      t.t_min.(l) <- Rctree.Bounds.t_min ts threshold;
      t.t_max.(l) <- Rctree.Bounds.t_max ts threshold
    done;
    if last = first then begin
      let ts = times s far in
      t.far_min.(i) <- Rctree.Bounds.t_min ts threshold;
      t.far_max.(i) <- Rctree.Bounds.t_max ts threshold;
      t.far_elmore.(i) <- s.t_p
    end;
    t.loads.(i) <- load_of s drv
  in
  for i = 0 to nets - 1 do
    let net = Design.net_of_id d i in
    try net_figures i net with Invalid_argument msg -> refuse net msg
  done;
  t

let load_capacitance d net = (figures d net).load
let sink_delays ?threshold d net = Array.to_list (figures ?threshold d net).sinks

let worst_window ?threshold d net =
  match figures ?threshold d net with
  | { sinks = [||]; far_end; _ } -> far_end
  | { sinks; _ } ->
      Array.fold_left
        (fun (lo, hi) { window = l, h; _ } -> (Float.min lo l, Float.max hi h))
        sinks.(0).window sinks

let all_sink_delays ?pool:_ ?threshold d =
  Obs.Span.with_ ~name:"sta.netdelay_batch" @@ fun () ->
  let t = all_figures ?threshold d in
  List.init (Design.net_count d) (fun i ->
      let net = Design.net_of_id d i and first = Design.first_load d i in
      ( net.Design.net_name,
        List.mapi
          (fun k sink ->
            let l = first + k in
            { sink; elmore = t.elmore.(l); window = (t.t_min.(l), t.t_max.(l)) })
          net.Design.loads ))
