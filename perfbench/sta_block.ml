(* sta-block: a gate-level design — a ripple-carry adder with line and
   daisy-chain wires plus a few broadcast nets of hundreds of sinks —
   printed once as netlist text; one job parses it, runs the bounds-mode
   timing analysis and reads the required period, the worst endpoint and
   its critical path.  Thousands of tiny per-net RC analyses fan out
   through the pool, then arrivals propagate in topological order. *)

open Harness

let bits = 256
let broadcasts = 4
let fanout = 320
let threshold = 0.5

let library () = Sta.Celllib.default Tech.Process.default_4um

(* the adder's nets re-wired one by one (a line or a daisy chain, each
   with its own R and C), then [broadcasts] buffer-driven nets of
   [fanout] inverter loads, every inverter output an endpoint.  The seed
   draws values, never sizes, so every seed costs about the same. *)
let generate st lib =
  let open Sta.Design in
  let base = Sta.Generate.ripple_carry_adder ~library:lib ~bits () in
  let d = create lib in
  List.iter
    (fun (inst, cell) -> add_instance d ~cell:cell.Sta.Celllib.cell_name inst)
    (instances base);
  let wire () =
    let resistance = 50. +. Random.State.float st 450. in
    let capacitance = 1e-14 +. Random.State.float st 9e-14 in
    if Random.State.bool st then Line { resistance; capacitance }
    else Daisy { resistance; capacitance }
  in
  List.iter
    (fun (net : net) -> add_net d ~wire:(wire ()) ~driver:net.driver ~loads:net.loads net.net_name)
    (nets base);
  List.iter (mark_primary_output d) (primary_outputs base);
  for k = 0 to broadcasts - 1 do
    let buf = Printf.sprintf "bc%d_buf" k in
    add_instance d ~cell:"buf4" buf;
    add_net d ~wire:(Lumped 2e-14)
      ~driver:(Primary Tech.Mosfet.paper_superbuffer)
      ~loads:[ { instance = buf; pin = "a" } ]
      (Printf.sprintf "bc%d_in" k);
    let loads =
      List.init fanout (fun j ->
          let inv = Printf.sprintf "bc%d_l%d" k j in
          add_instance d ~cell:"inv1" inv;
          { instance = inv; pin = "a" })
    in
    add_net d ~wire:(wire ()) ~driver:(Cell_output { instance = buf; pin = "y" }) ~loads
      (Printf.sprintf "bc%d" k);
    List.iter
      (fun (p : pin) ->
        let net = p.instance ^ "_y" in
        add_net d ~wire:(Lumped 1e-14)
          ~driver:(Cell_output { instance = p.instance; pin = "y" })
          ~loads:[] net;
        mark_primary_output d net)
      loads
  done;
  d

let parse lib text =
  match Sta.Netlist_io.parse_string lib text with
  | Ok d -> d
  | Error e -> failwith (Sta.Netlist_io.error_to_string e)

(* everything a job reads out of its analysis *)
type answer = {
  endpoints : (string * Sta.Analysis.window) list;
  period : float;
  worst : (string * Sta.Analysis.window) option;
  path : Sta.Analysis.step list;
}

let answer r =
  let worst = Sta.Analysis.worst_endpoint r in
  {
    endpoints = Sta.Analysis.endpoints r;
    period = Sta.Analysis.required_period r;
    worst;
    path = (match worst with Some (name, _) -> Sta.Analysis.critical_path r name | None -> []);
  }

(* bit-identical to the reference run on a 1-domain pool, and every
   endpoint window has early <= late *)
let check ~reference a =
  a = reference
  && List.for_all (fun (_, (w : Sta.Analysis.window)) -> w.early <= w.late) a.endpoints

let make (ctx : ctx) =
  let st = Random.State.make [| ctx.seed; 0x57a |] in
  let lib = library () in
  let design = generate st lib in
  let text = Sta.Netlist_io.to_string design in
  let nets = List.length (Sta.Design.nets design) in
  let reference =
    let d = parse lib text in
    Parallel.Pool.with_pool ~domains:1 (fun pool ->
        answer (Sta.Analysis.run_exn ~mode:Bounds_mode ~threshold ~pool d))
  in
  let job ~traced =
    let t0 = now () in
    let d = parse lib text in
    let t1 = now () in
    let r = Sta.Analysis.run_exn ~mode:Bounds_mode ~threshold d in
    let t2 = now () in
    let a = answer r in
    let t3 = now () in
    let phases =
      if not traced then []
      else
        let _, t_net = timed (fun () -> Sta.Netdelay.all_sink_delays ~threshold d) in
        [
          ("sta.parse_s", t1 -. t0);
          ("sta.netdelay_s", t_net);
          ("sta.propagate_s", t2 -. t1 -. t_net);
        ]
    in
    {
      total = t3 -. t0;
      setup = t1 -. t0;
      phases;
      live = live_mb (d, r, a);
      ok = check ~reference a;
    }
  in
  let controls () =
    let late_by (name, (w : Sta.Analysis.window)) =
      (name, { w with Sta.Analysis.late = w.late *. (1. +. 1e-12) })
    in
    let nudged =
      {
        reference with
        endpoints = List.mapi (fun i e -> if i = 0 then late_by e else e) reference.endpoints;
      }
    in
    check ~reference reference && not (check ~reference nudged)
  in
  let probes _ =
    let d = parse lib text in
    let time_on pool =
      median_of ~reps:3 (fun () ->
          snd (timed (fun () -> Sta.Netdelay.all_sink_delays ?pool ~threshold d)))
    in
    let pinned = time_on None in
    let serial = Parallel.Pool.with_pool ~domains:1 (fun pool -> time_on (Some pool)) in
    [ ("parallel.speedup.sta_netdelay", serial /. pinned) ]
  in
  {
    shape =
      [
        ("adder_bits", Int bits);
        ("instances", Int (List.length (Sta.Design.instances design)));
        ("nets", Int nets);
        ("endpoints", Int (List.length (Sta.Design.primary_outputs design)));
        ("broadcast_nets", Int broadcasts);
        ("broadcast_fanout", Int fanout);
        ("wires", Str "line or daisy per net, R 50-500 ohm, C 10-100 fF");
        ("mode", Str "bounds");
        ("threshold", Num threshold);
        ("netlist_bytes", Int (String.length text));
      ];
    work_per_job = float_of_int nets;
    min_jobs = 3;
    warmup = true;
    job;
    probes;
    controls;
    armed = false;
  }
