type window = { early : float; late : float }

let m_runs = Obs.Counter.make "sta.runs"
let m_instances = Obs.Counter.make "sta.instances_visited"
let m_nets = Obs.Counter.make "sta.nets_propagated"
let m_endpoints = Obs.Counter.make "sta.endpoints"

type mode = Elmore_mode | Bounds_mode

type step =
  | Through_net of { net : string; launch : window; arrival : window }
  | Through_cell of { instance : string; cell : string; input : string; output : window }

(* Every name is resolved to an int id once, in [index]: instances in
   sorted-name order (as in [Graph]), nets in declaration order, and
   load pins numbered net by net in load-list order.  Everything the
   run computes is then an array indexed by one of those ids. *)
type t = {
  design : Design.t;
  analysis_mode : mode;
  thresh : float;
  inst_ids : (string, int) Hashtbl.t;
  cells : Celllib.cell array; (* instance -> cell *)
  net_ids : (string, int) Hashtbl.t;
  nets : Design.net array; (* in declaration order *)
  pin_loads : int array array; (* instance -> load on each input pin; -1 if open *)
  load_net : int array; (* load -> net feeding it *)
  first_load : int array; (* net -> its first load; loads of a net are consecutive *)
  drives : int array; (* instance -> net its output drives; -1 if none *)
  launches : window array; (* net -> window at driver output *)
  pin_arrivals : window array; (* load -> window *)
  out_arrivals : window array; (* instance -> output window *)
  crit_input : int array; (* instance -> input pin position setting the late edge *)
  ends : (window * int) option array;
      (* primary-output net -> arrival and its critical load (-1: the far end) *)
}

let zero = { early = 0.; late = 0. }
let add_window a b = { early = a.early +. b.early; late = a.late +. b.late }

let index mode thresh d =
  let insts = Array.of_list (Design.instances d) and nets = Array.of_list (Design.nets d) in
  let ids_of names =
    let tbl = Hashtbl.create (2 * Array.length names) in
    Array.iteri (fun i name -> Hashtbl.replace tbl name i) names;
    tbl
  in
  let inst_ids = ids_of (Array.map fst insts) in
  let cells = Array.map snd insts in
  let first_load = Array.make (Array.length nets + 1) 0 in
  Array.iteri
    (fun i (net : Design.net) ->
      first_load.(i + 1) <- first_load.(i) + List.length net.Design.loads)
    nets;
  let n_loads = first_load.(Array.length nets) in
  let r =
    {
      design = d;
      analysis_mode = mode;
      thresh;
      inst_ids;
      cells;
      net_ids = ids_of (Array.map (fun (n : Design.net) -> n.Design.net_name) nets);
      nets;
      pin_loads = Array.map (fun c -> Array.make (List.length c.Celllib.inputs) (-1)) cells;
      load_net = Array.make n_loads 0;
      first_load;
      drives = Array.make (Array.length cells) (-1);
      launches = Array.make (Array.length nets) zero;
      pin_arrivals = Array.make n_loads zero;
      out_arrivals = Array.make (Array.length cells) zero;
      crit_input = Array.make (Array.length cells) 0;
      ends = Array.make (Array.length nets) None;
    }
  in
  Array.iteri
    (fun i (net : Design.net) ->
      (match net.Design.driver with
      | Design.Primary _ -> ()
      | Design.Cell_output { instance; _ } -> r.drives.(Hashtbl.find inst_ids instance) <- i);
      List.iteri
        (fun k { Design.instance; pin } ->
          let u = Hashtbl.find inst_ids instance in
          r.pin_loads.(u).(Option.get (Celllib.input_index cells.(u) pin)) <- first_load.(i) + k;
          r.load_net.(first_load.(i) + k) <- i)
        net.Design.loads)
    nets;
  r

(* per-net interconnect delays in the chosen mode: [pins] for every load
   in load-list order, [noload] the far-end window of a loadless net,
   [load] the capacitance the driver charges.  Pure in the design:
   safe to evaluate for many nets concurrently. *)
type net_delay = { pins : window array; noload : window; load : float }

let net_delay mode threshold d (net : Design.net) =
  let f = Netdelay.figures ~threshold d net in
  let window (s : Netdelay.sink_delay) =
    match mode with
    | Bounds_mode -> { early = fst s.window; late = snd s.window }
    | Elmore_mode -> { early = s.elmore; late = s.elmore }
  in
  let noload =
    match (mode, net.Design.loads) with
    | Bounds_mode, [] -> { early = fst f.far_end; late = snd f.far_end }
    | Elmore_mode, [] -> { early = Lazy.force f.far_end_elmore; late = Lazy.force f.far_end_elmore }
    | _, _ :: _ -> zero
  in
  { pins = Array.map window f.sinks; noload; load = f.load }

let run ?(mode = Bounds_mode) ?(threshold = 0.5) ?(input_arrivals = []) ?pool d =
  List.iter
    (fun (name, at) ->
      (match Design.net d name with
      | { Design.driver = Design.Primary _; _ } -> ()
      | { Design.driver = Design.Cell_output _; _ } ->
          invalid_arg
            (Printf.sprintf "Analysis.run: %S is not a primary-input net" name)
      | exception Not_found ->
          invalid_arg (Printf.sprintf "Analysis.run: unknown net %S" name));
      if at < 0. then invalid_arg "Analysis.run: negative input arrival")
    input_arrivals;
  Obs.Counter.incr m_runs;
  match
    Obs.Span.with_ ~name:"sta.order" (fun () -> Graph.topological_order (Graph.of_design d))
  with
  | Error cycle -> Error cycle
  | Ok order ->
      let r = Obs.Span.with_ ~name:"sta.index" (fun () -> index mode threshold d) in
      (* the expensive part — one RC-tree analysis per net — is
         independent across nets; fan it out before the (cheap,
         order-dependent) propagation below *)
      let delays =
        Obs.Span.with_ ~name:"sta.netdelay" (fun () ->
            Parallel.Pool.map ?pool (net_delay mode threshold d) r.nets)
      in
      (* launch a net: arrival at each of its loads *)
      let propagate_net i launch =
        Obs.Counter.incr m_nets;
        r.launches.(i) <- launch;
        Array.iteri
          (fun k w -> r.pin_arrivals.(r.first_load.(i) + k) <- add_window launch w)
          delays.(i).pins
      in
      Obs.Span.with_ ~name:"sta.propagate" (fun () ->
          Array.iteri
            (fun i (net : Design.net) ->
              match net.Design.driver with
              | Design.Primary _ ->
                  let at =
                    Option.value (List.assoc_opt net.Design.net_name input_arrivals) ~default:0.
                  in
                  propagate_net i { early = at; late = at }
              | Design.Cell_output _ -> ())
            r.nets;
          (* instances in topological order *)
          List.iter
            (fun name ->
              Obs.Counter.incr m_instances;
              let u = Hashtbl.find r.inst_ids name in
              let cell = r.cells.(u) and loads = r.pin_loads.(u) in
              let input k = if loads.(k) < 0 then zero else r.pin_arrivals.(loads.(k)) in
              let crit = ref 0 in
              for k = 1 to Array.length loads - 1 do
                if (input k).late > (input !crit).late then crit := k
              done;
              let worst = input !crit in
              let earliest = ref worst.early in
              for k = 0 to Array.length loads - 1 do
                earliest := Float.min !earliest (input k).early
              done;
              let net = r.drives.(u) in
              let load = if net < 0 then 0. else delays.(net).load in
              let cell_delay =
                cell.Celllib.intrinsic_delay +. (cell.Celllib.delay_per_farad *. load)
              in
              let out = { early = !earliest +. cell_delay; late = worst.late +. cell_delay } in
              r.out_arrivals.(u) <- out;
              r.crit_input.(u) <- !crit;
              if net >= 0 then propagate_net net out)
            order);
      Obs.Span.with_ ~name:"sta.endpoints" (fun () ->
          List.iter
            (fun po ->
              Obs.Counter.incr m_endpoints;
              let i = Hashtbl.find r.net_ids po in
              let first = r.first_load.(i) and last = r.first_load.(i + 1) - 1 in
              let arrival, sink =
                if last < first then (add_window r.launches.(i) delays.(i).noload, -1)
                else begin
                  (* the first load with the latest late edge *)
                  let sink = ref first in
                  for l = first + 1 to last do
                    if not (r.pin_arrivals.(!sink).late >= r.pin_arrivals.(l).late) then sink := l
                  done;
                  (r.pin_arrivals.(!sink), !sink)
                end
              in
              r.ends.(i) <- Some (arrival, sink))
            (Design.primary_outputs d));
      Ok r

let run_exn ?mode ?threshold ?input_arrivals ?pool d =
  match run ?mode ?threshold ?input_arrivals ?pool d with
  | Ok r -> r
  | Error cycle ->
      invalid_arg ("Analysis.run_exn: combinational cycle through " ^ String.concat ", " cycle)

let mode r = r.analysis_mode
let threshold r = r.thresh
let net_launch r name = r.launches.(Hashtbl.find r.net_ids name)

let pin_arrival r { Design.instance; pin } =
  let u = Hashtbl.find r.inst_ids instance in
  match Celllib.input_index r.cells.(u) pin with
  | Some k when r.pin_loads.(u).(k) >= 0 -> r.pin_arrivals.(r.pin_loads.(u).(k))
  | Some _ | None -> raise Not_found

let output_arrival r name = r.out_arrivals.(Hashtbl.find r.inst_ids name)

let end_of r name =
  match r.ends.(Hashtbl.find r.net_ids name) with Some e -> e | None -> raise Not_found

let endpoint_arrival r name = fst (end_of r name)

let endpoints r =
  List.map (fun po -> (po, endpoint_arrival r po)) (Design.primary_outputs r.design)

let worst_endpoint r =
  List.fold_left
    (fun acc (po, w) ->
      match acc with Some (_, best) when best.late >= w.late -> acc | Some _ | None -> Some (po, w))
    None (endpoints r)

let critical_path r endpoint =
  (* [sink]: the load the path arrives at, or -1 for the far end *)
  let rec back_from_net i sink steps =
    let launch = r.launches.(i) in
    let arrival = if sink < 0 then fst (Option.get r.ends.(i)) else r.pin_arrivals.(sink) in
    let steps = Through_net { net = r.nets.(i).Design.net_name; launch; arrival } :: steps in
    match r.nets.(i).Design.driver with
    | Design.Primary _ -> steps
    | Design.Cell_output { instance; _ } ->
        let u = Hashtbl.find r.inst_ids instance in
        let k = r.crit_input.(u) in
        let steps =
          Through_cell
            {
              instance;
              cell = r.cells.(u).Celllib.cell_name;
              input = fst (List.nth r.cells.(u).Celllib.inputs k);
              output = r.out_arrivals.(u);
            }
          :: steps
        in
        let l = r.pin_loads.(u).(k) in
        if l < 0 then steps else back_from_net r.load_net.(l) l steps
  in
  back_from_net (Hashtbl.find r.net_ids endpoint) (snd (end_of r endpoint)) []

let hold_slack r ~hold =
  if hold < 0. then invalid_arg "Analysis.hold_slack: negative hold requirement";
  List.map (fun (po, w) -> (po, w.early -. hold)) (endpoints r)

let required_period r =
  List.fold_left (fun acc (_, w) -> Float.max acc w.late) 0. (endpoints r)

let slack r ~period = List.map (fun (po, w) -> (po, period -. w.late)) (endpoints r)
