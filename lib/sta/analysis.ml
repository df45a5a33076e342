type window = { early : float; late : float }

let m_runs = Obs.Counter.make "sta.runs"
let m_instances = Obs.Counter.make "sta.instances_visited"
let m_nets = Obs.Counter.make "sta.nets_propagated"
let m_endpoints = Obs.Counter.make "sta.endpoints"

type mode = Elmore_mode | Bounds_mode

type step =
  | Through_net of { net : string; launch : window; arrival : window }
  | Through_cell of { instance : string; cell : string; input : string; output : window }

(* Everything is indexed by the design's ids: instances and nets as
   added, loads as numbered by [Design.first_load]. *)
type t = {
  design : Design.t;
  analysis_mode : mode;
  thresh : float;
  launches : window array; (* net -> window at driver output *)
  pin_early : float array; (* load -> arrival window *)
  pin_late : float array;
  out_arrivals : window array; (* instance -> output window *)
  crit_input : int array; (* instance -> input pin position setting the late edge *)
  ends : (window * int) option array;
      (* primary-output net -> arrival and its critical load (-1: the far end) *)
}

let zero = { early = 0.; late = 0. }
let add_window a b = { early = a.early +. b.early; late = a.late +. b.late }
let pin_window r l = { early = r.pin_early.(l); late = r.pin_late.(l) }

let run ?(mode = Bounds_mode) ?(threshold = 0.5) ?(input_arrivals = []) ?pool:_ d =
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
  match Obs.Span.with_ ~name:"sta.order" (fun () -> Graph.design_order d) with
  | Error stuck -> Error (Graph.stuck_names d stuck)
  | Ok order ->
      let nets = Design.net_count d and insts = Design.instance_count d in
      let n_loads = Design.first_load d nets in
      let r =
        {
          design = d;
          analysis_mode = mode;
          thresh = threshold;
          launches = Array.make nets zero;
          pin_early = Array.make n_loads 0.;
          pin_late = Array.make n_loads 0.;
          out_arrivals = Array.make insts zero;
          crit_input = Array.make insts 0;
          ends = Array.make nets None;
        }
      in
      let f = Obs.Span.with_ ~name:"sta.netdelay" (fun () -> Netdelay.all_figures ~threshold d) in
      let delay_early, delay_late =
        match mode with
        | Bounds_mode -> (f.t_min, f.t_max)
        | Elmore_mode -> (f.elmore, f.elmore)
      in
      (* launch a net: arrival at each of its loads *)
      let propagate_net i launch =
        Obs.Counter.incr m_nets;
        r.launches.(i) <- launch;
        for l = Design.first_load d i to Design.first_load d (i + 1) - 1 do
          r.pin_early.(l) <- launch.early +. delay_early.(l);
          r.pin_late.(l) <- launch.late +. delay_late.(l)
        done
      in
      (* arrival at input pin [k] of instance [u]; 0 when open *)
      let input_early u k =
        let l = Design.pin_load d u k in
        if l < 0 then 0. else r.pin_early.(l)
      and input_late u k =
        let l = Design.pin_load d u k in
        if l < 0 then 0. else r.pin_late.(l)
      in
      Obs.Span.with_ ~name:"sta.propagate" (fun () ->
          for i = 0 to nets - 1 do
            match (Design.net_of_id d i).Design.driver with
            | Design.Primary _ ->
                let name = (Design.net_of_id d i).Design.net_name in
                let at = Option.value (List.assoc_opt name input_arrivals) ~default:0. in
                propagate_net i { early = at; late = at }
            | Design.Cell_output _ -> ()
          done;
          (* instances in topological order *)
          Array.iter
            (fun u ->
              Obs.Counter.incr m_instances;
              let cell = Design.instance_cell d u in
              let pins = List.length cell.Celllib.inputs in
              let crit = ref 0 in
              for k = 1 to pins - 1 do
                if input_late u k > input_late u !crit then crit := k
              done;
              let earliest = ref (input_early u !crit) in
              for k = 0 to pins - 1 do
                earliest := Float.min !earliest (input_early u k)
              done;
              let net = Design.driven_net d u in
              let load = if net < 0 then 0. else f.loads.(net) in
              let cell_delay =
                cell.Celllib.intrinsic_delay +. (cell.Celllib.delay_per_farad *. load)
              in
              let out = { early = !earliest +. cell_delay; late = input_late u !crit +. cell_delay } in
              r.out_arrivals.(u) <- out;
              r.crit_input.(u) <- !crit;
              if net >= 0 then propagate_net net out)
            order);
      Obs.Span.with_ ~name:"sta.endpoints" (fun () ->
          List.iter
            (fun i ->
              Obs.Counter.incr m_endpoints;
              let first = Design.first_load d i and last = Design.first_load d (i + 1) - 1 in
              let arrival, sink =
                if last < first then begin
                  let far =
                    match mode with
                    | Bounds_mode -> { early = f.far_min.(i); late = f.far_max.(i) }
                    | Elmore_mode -> { early = f.far_elmore.(i); late = f.far_elmore.(i) }
                  in
                  (add_window r.launches.(i) far, -1)
                end
                else begin
                  (* the first load with the latest late edge *)
                  let sink = ref first in
                  for l = first + 1 to last do
                    if not (r.pin_late.(!sink) >= r.pin_late.(l)) then sink := l
                  done;
                  (pin_window r !sink, !sink)
                end
              in
              r.ends.(i) <- Some (arrival, sink))
            (Design.primary_output_ids d));
      Ok r

let run_exn ?mode ?threshold ?input_arrivals ?pool d =
  match run ?mode ?threshold ?input_arrivals ?pool d with
  | Ok r -> r
  | Error cycle ->
      invalid_arg ("Analysis.run_exn: combinational cycle through " ^ String.concat ", " cycle)

let mode r = r.analysis_mode
let threshold r = r.thresh
let net_launch r name = r.launches.(Design.net_id r.design name)

let pin_arrival r { Design.instance; pin } =
  let u = Design.instance_id r.design instance in
  match Celllib.input_index (Design.instance_cell r.design u) pin with
  | Some k when Design.pin_load r.design u k >= 0 ->
      pin_window r (Design.pin_load r.design u k)
  | Some _ | None -> raise Not_found

let output_arrival r name = r.out_arrivals.(Design.instance_id r.design name)

let end_of r name =
  match r.ends.(Design.net_id r.design name) with Some e -> e | None -> raise Not_found

let endpoint_arrival r name = fst (end_of r name)

let endpoints r =
  List.map (fun po -> (po, endpoint_arrival r po)) (Design.primary_outputs r.design)

let worst_endpoint r =
  List.fold_left
    (fun acc (po, w) ->
      match acc with Some (_, best) when best.late >= w.late -> acc | Some _ | None -> Some (po, w))
    None (endpoints r)

let critical_path r endpoint =
  let d = r.design in
  (* [sink]: the load the path arrives at, or -1 for the far end *)
  let rec back_from_net i sink steps =
    let launch = r.launches.(i) in
    let arrival = if sink < 0 then fst (Option.get r.ends.(i)) else pin_window r sink in
    let steps =
      Through_net { net = (Design.net_of_id d i).Design.net_name; launch; arrival } :: steps
    in
    let u = Design.driver_instance d i in
    if u < 0 then steps
    else begin
      let k = r.crit_input.(u) and cell = Design.instance_cell d u in
      let steps =
        Through_cell
          {
            instance = Design.instance_name d u;
            cell = cell.Celllib.cell_name;
            input = fst (List.nth cell.Celllib.inputs k);
            output = r.out_arrivals.(u);
          }
        :: steps
      in
      let l = Design.pin_load d u k in
      if l < 0 then steps else back_from_net (Design.load_net d l) l steps
    end
  in
  back_from_net (Design.net_id d endpoint) (snd (end_of r endpoint)) []

let hold_slack r ~hold =
  if hold < 0. then invalid_arg "Analysis.hold_slack: negative hold requirement";
  List.map (fun (po, w) -> (po, w.early -. hold)) (endpoints r)

let required_period r =
  List.fold_left (fun acc (_, w) -> Float.max acc w.late) 0. (endpoints r)

let slack r ~period = List.map (fun (po, w) -> (po, period -. w.late)) (endpoints r)
