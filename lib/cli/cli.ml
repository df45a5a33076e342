(* rcdelay: command-line front end for the RC-tree delay bounds.

   Subcommands:
     times     characteristic times of every output of a deck
     bounds    delay bounds at given thresholds
     voltage   voltage bounds at given times
     certify   the paper's OK check for one threshold/deadline
     simulate  exact step response as CSV
     transient time-stepping step response as CSV (direct/cg/dense solver)
     pla       the Section V PLA experiment
     fig10     the paper's Fig. 10 session on the built-in Fig. 7 net
     ramp      crossing bounds under a ramp input (superposition)
     moments   higher moments + two-pole model
     ac        frequency response
     sta       static timing analysis of a netlist file
     sweep     incremental what-if queries against one deck
     stats     metrics self-test on built-in workloads

   Every subcommand also accepts --metrics[=FILE] (report to stderr,
   or JSON lines to FILE), --trace (span trace to stderr) and --jobs N
   (worker domains for the parallel batch analyses; the RCDELAY_JOBS
   environment variable sets the same default).  The RCDELAY_METRICS
   environment variable enables metrics collection without flags.

   Exit codes: 0 success, 1 run-time failure (including a failed
   certification), 2 bad input — a command line that does not parse, a
   deck or netlist that does not parse or elaborate, a deck value or a
   flag the analysis rejects, a time grid above
   Circuit.Large.max_grid_values, or, for the one size-limited path,
   the dense oracle of transient --solver dense, a network above
   Check.Mna.max_unknowns.  125 is an internal error. *)

let load_tree path =
  match Spice.Parser.parse_file path with
  | Error e -> Error (Printf.sprintf "%s: %s" path (Spice.Parser.error_to_string e))
  | Ok deck -> (
      match Spice.Elaborate.to_tree deck with
      | Error e -> Error (Printf.sprintf "%s: %s" path (Spice.Elaborate.error_to_string e))
      | Ok tree -> Ok tree)

(* bad input is exit 2, distinct from analysis failures (exit 1): a
   deck that does not load, a value in it (or a flag) that a library
   layer rejects with Invalid_argument, or a network too large for the
   dense oracle of `transient --solver dense`, the only path with a size
   limit *)
let with_tree path f =
  match Result.map f (load_tree path) with
  | Ok code -> code
  | Error msg ->
      prerr_endline msg;
      2
  | exception Invalid_argument msg ->
      Printf.eprintf "%s: %s\n%!" path msg;
      2
  | exception Check.Mna.Too_large { unknowns; limit } ->
      Printf.eprintf
        "%s: %d unknowns, above the dense solver's limit of %d (Check.Mna.max_unknowns); \
         `rcdelay transient` with the default direct solver steps a network of any size\n%!"
        path unknowns limit;
      2

let fmt_s t = Rctree.Units.format_quantity ~unit_symbol:"s" t

(* every all-outputs subcommand builds one Analysis handle — one
   all-node moments pass — and answers each output from it *)

let times_cmd path =
  with_tree path (fun tree ->
      let h = Rctree.Analysis.make tree in
      let table = Reprolib.Table.create ~columns:[ "output"; "T_P"; "T_De"; "T_Re"; "Elmore" ] in
      Array.iter
        (fun (label, _, ts) ->
          Reprolib.Table.add_row table
            [
              label;
              fmt_s ts.Rctree.Times.t_p;
              fmt_s ts.Rctree.Times.t_d;
              fmt_s ts.Rctree.Times.t_r;
              fmt_s ts.Rctree.Times.t_d;
            ])
        (Rctree.Analysis.all_times h);
      Reprolib.Table.print table;
      0)

let bounds_cmd path thresholds =
  with_tree path (fun tree ->
      let h = Rctree.Analysis.make tree in
      let per_threshold =
        List.map (fun v -> (v, Rctree.Analysis.all_delay_bounds h ~threshold:v)) thresholds
      in
      let table = Reprolib.Table.create ~columns:[ "output"; "V"; "t_min"; "t_max" ] in
      List.iteri
        (fun i (label, _) ->
          List.iter
            (fun (v, rows) ->
              let _, _, (lo, hi) = rows.(i) in
              Reprolib.Table.add_row table [ label; Printf.sprintf "%g" v; fmt_s lo; fmt_s hi ])
            per_threshold)
        (Rctree.Analysis.outputs h);
      Reprolib.Table.print table;
      0)

let voltage_cmd path times =
  with_tree path (fun tree ->
      let h = Rctree.Analysis.make tree in
      let per_time =
        List.map (fun t -> (t, Rctree.Analysis.all_voltage_bounds h ~time:t)) times
      in
      let table = Reprolib.Table.create ~columns:[ "output"; "t"; "v_min"; "v_max" ] in
      List.iteri
        (fun i (label, _) ->
          List.iter
            (fun (t, rows) ->
              let _, _, (lo, hi) = rows.(i) in
              Reprolib.Table.add_row table
                [ label; fmt_s t; Printf.sprintf "%.5f" lo; Printf.sprintf "%.5f" hi ])
            per_time)
        (Rctree.Analysis.outputs h);
      Reprolib.Table.print table;
      0)

let certify_cmd path threshold deadline =
  with_tree path (fun tree ->
      let h = Rctree.Analysis.make tree in
      let verdicts = Rctree.Analysis.all_certify h ~threshold ~deadline in
      let all_pass = ref true in
      Array.iter
        (fun (label, _, verdict) ->
          if verdict <> Rctree.Bounds.Pass then all_pass := false;
          Printf.printf "%-16s %s\n" label (Rctree.Bounds.verdict_to_string verdict))
        verdicts;
      if !all_pass then 0 else 1)

(* [simulate]'s and [transient]'s CSV: [cell j k t] at output j, time k *)
let print_csv ~t_end ~samples labels cell =
  print_string (String.concat "," ("t" :: labels));
  print_newline ();
  for k = 0 to samples - 1 do
    let t = t_end *. float_of_int k /. float_of_int (samples - 1) in
    let cells = List.mapi (fun j _ -> Printf.sprintf "%.6g" (cell j k t)) labels in
    print_string (String.concat "," (Printf.sprintf "%.6g" t :: cells));
    print_newline ()
  done

let simulate_cmd path t_end samples segments =
  with_tree path (fun tree ->
      if not (t_end > 0.) then begin
        prerr_endline "simulate: --t-end must be positive";
        2
      end
      else begin
        let times =
          Array.init samples (fun i -> t_end *. float_of_int i /. float_of_int (samples - 1))
        in
        (* one lumping, and one tree pass per contour point, serve
           every output *)
        let lumped = Circuit.Measure.discretize_for_simulation ~segments tree in
        let labels = List.map fst (Rctree.Tree.outputs tree) in
        let nodes = Array.of_list (List.map (Rctree.Tree.output_named lumped) labels) in
        let values = Circuit.Response.step (Circuit.Response.make lumped) ~nodes ~times in
        print_csv ~t_end ~samples labels (fun j k _ -> values.(j).(k));
        0
      end)

(* time-stepping counterpart of [simulate]: same CSV shape, but through
   Circuit.Transient, or through one of the Check.Stepper oracles, so
   waveforms from the factor-once tree LDL^T can be diffed against the
   CG and dense-LU steppers from the shell *)
let transient_cmd path dt t_end solver integration samples segments =
  with_tree path (fun tree ->
      let bad msg =
        prerr_endline ("transient: " ^ msg);
        2
      in
      match
        ( (match String.lowercase_ascii solver with
          | "direct" -> Ok `Direct
          | "cg" -> Ok `Cg
          | "dense" -> Ok `Dense
          | s -> Error (Printf.sprintf "unknown solver %S (expected direct, cg or dense)" s)),
          match String.lowercase_ascii integration with
          | "trap" | "trapezoidal" -> Ok Circuit.Transient.Trapezoidal
          | "be" | "backward-euler" -> Ok Circuit.Transient.Backward_euler
          | s ->
              Error (Printf.sprintf "unknown integration %S (expected trap or be)" s) )
      with
      | Error m, _ | _, Error m -> bad m
      | Ok solver, Ok integration ->
          if t_end <= 0. then bad "--t-end must be positive"
          else begin
            let dt = match dt with Some d -> d | None -> t_end /. 1000. in
            if dt <= 0. then bad "--dt must be positive"
            else begin
              let lumped = Circuit.Measure.discretize_for_simulation ~segments tree in
              let nodes =
                Rctree.Tree.input lumped :: List.map snd (Rctree.Tree.outputs lumped)
              in
              let input = Circuit.Transient.step_input in
              let waveform =
                match solver with
                | `Direct ->
                    let res =
                      Circuit.Transient.simulate ~integration lumped ~dt ~t_end ~nodes ~input
                    in
                    fun id -> Circuit.Transient.waveform res ~node:id
                | #Check.Stepper.engine as engine ->
                    let waves =
                      Check.Stepper.simulate engine ~integration lumped ~dt ~t_end ~nodes ~input
                    in
                    fun id -> List.assoc id waves
              in
              let outputs = Rctree.Tree.outputs lumped in
              let waves = Array.of_list (List.map (fun (_, id) -> waveform id) outputs) in
              print_csv ~t_end ~samples (List.map fst outputs) (fun j _ t ->
                  Circuit.Waveform.value_at waves.(j) t);
              0
            end
          end)

let pla_cmd minterms threshold =
  let process = Tech.Process.default_4um in
  let params = Tech.Pla.default_params process in
  let table = Reprolib.Table.create ~columns:[ "minterms"; "t_min"; "t_max" ] in
  List.iter
    (fun (n, lo, hi) ->
      Reprolib.Table.add_row table [ string_of_int n; fmt_s lo; fmt_s hi ])
    (Tech.Pla.sweep ~threshold process params ~minterms);
  Reprolib.Table.print table;
  0

let ramp_cmd path rise threshold =
  with_tree path (fun tree ->
      if not (rise > 0.) then begin
        prerr_endline "ramp: --rise must be positive";
        2
      end
      else begin
        let input = Rctree.Excitation.ramp ~rise_time:rise in
        let table =
          Reprolib.Table.create ~columns:[ "output"; "step window"; "ramp window" ]
        in
        Array.iter
          (fun (label, _, ts) ->
            let slo, shi = (Rctree.Bounds.t_min ts threshold, Rctree.Bounds.t_max ts threshold) in
            let rlo, rhi = Rctree.Excitation.crossing_bounds ts input ~threshold in
            Reprolib.Table.add_row table
              [
                label;
                Printf.sprintf "[%s, %s]" (fmt_s slo) (fmt_s shi);
                Printf.sprintf "[%s, %s]" (fmt_s rlo) (fmt_s rhi);
              ])
          (Rctree.Analysis.all_times (Rctree.Analysis.make tree));
        Reprolib.Table.print table;
        0
      end)

let moments_cmd path order segments =
  with_tree path (fun tree ->
      let lumped = Circuit.Measure.discretize_for_simulation ~segments tree in
      let columns = "output" :: List.init order (fun j -> Printf.sprintf "m%d" (j + 1)) @ [ "model" ] in
      let table = Reprolib.Table.create ~columns in
      List.iter
        (fun (label, id) ->
          let m = Rctree.Higher_moments.output_moments lumped ~output:id ~order in
          let cells = List.init order (fun j -> fmt_s m.(j + 1)) in
          let model =
            Format.asprintf "%a" Rctree.Higher_moments.pp_fit
              (Rctree.Higher_moments.fit lumped ~output:id)
          in
          Reprolib.Table.add_row table ((label :: cells) @ [ model ]))
        (Rctree.Tree.outputs lumped);
      Reprolib.Table.print table;
      0)

let ac_cmd path points segments =
  with_tree path (fun tree ->
      let lumped = Circuit.Measure.discretize_for_simulation ~segments tree in
      let ac = Circuit.Ac.of_tree lumped in
      List.iter
        (fun (label, id) ->
          let w3db = Circuit.Ac.bandwidth_3db ac ~node:id in
          Printf.printf "output %s: f_3dB = %sHz\n" label
            (Rctree.Units.format_si (w3db /. (2. *. Float.pi)));
          let omegas =
            Array.init points (fun i ->
                w3db *. 0.01 *. Float.pow 10. (4. *. float_of_int i /. float_of_int (points - 1)))
          in
          let table = Reprolib.Table.create ~columns:[ "omega(rad/s)"; "dB"; "phase(deg)" ] in
          Array.iter
            (fun (omega, db, deg) ->
              Reprolib.Table.add_row table
                [
                  Rctree.Units.format_si omega; Printf.sprintf "%.2f" db; Printf.sprintf "%.1f" deg;
                ])
            (Circuit.Ac.bode_table ac ~node:id ~omegas);
          Reprolib.Table.print table)
        (Rctree.Tree.outputs lumped);
      0)

(* a netlist value a library layer rejects (say, a wire whose delay
   overflows) is bad input, exit 2, like a deck value in [with_tree] *)
let sta_cmd path period hold elmore =
  let lib = Sta.Celllib.default Tech.Process.default_4um in
  match Sta.Netlist_io.parse_file lib path with
  | Error e ->
      prerr_endline (Printf.sprintf "%s: %s" path (Sta.Netlist_io.error_to_string e));
      2
  | Ok design -> (
      (match Sta.Design.check design with
      | [] -> ()
      | problems ->
          prerr_endline "design check:";
          List.iter (fun p -> prerr_endline ("  " ^ p)) problems);
      let mode = if elmore then Sta.Analysis.Elmore_mode else Sta.Analysis.Bounds_mode in
      match Sta.Analysis.run ~mode design with
      | Error cycle ->
          prerr_endline ("combinational cycle through: " ^ String.concat ", " cycle);
          1
      | Ok r ->
          print_string (Sta.Report.timing_report ?period ?hold r);
          0
      | exception Invalid_argument msg ->
          Printf.eprintf "%s: %s\n%!" path msg;
          2)

(* ---- sweep: incremental what-if queries ----

   Edit grammar (one query per --edit / per line of --edits-file;
   ';'-separated edits inside a query apply cumulatively):

     replace <addr> <r> <c>     swap the URC leaf at <addr>
     scale-r <addr> <factor>    scale every resistance under <addr>
     scale-c <addr> <factor>    scale every capacitance under <addr>
     buffer  <addr> <r> <c>     drive the subtree through a buffer
     graft   <addr> <r> <c>     append a URC at the subtree's output
     prune   <addr>             delete the subtree

   <addr> is "root", "leaf:N" (N-th leaf left to right), or a path of
   l/r/b steps from the root, e.g. "llrb".  Queries are independent:
   each one edits the same base network. *)

let ( let* ) = Result.bind

let parse_addr h s =
  let n = String.length s in
  if n > 5 && String.sub s 0 5 = "leaf:" then
    match int_of_string_opt (String.sub s 5 (n - 5)) with
    | Some i when i >= 0 && i < Rctree.Incremental.leaf_count h ->
        Ok (Rctree.Incremental.leaf_path h i)
    | Some i ->
        Error
          (Printf.sprintf "leaf index %d out of range (network has %d leaves)" i
             (Rctree.Incremental.leaf_count h))
    | None -> Error (Printf.sprintf "bad leaf index in %S" s)
  else Rctree.Incremental.path_of_string s

let parse_edit h tokens =
  let num what s =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "bad %s %S" what s)
  in
  match tokens with
  | [ "replace"; a; r; c ] ->
      let* path = parse_addr h a in
      let* resistance = num "resistance" r in
      let* capacitance = num "capacitance" c in
      Ok (Rctree.Incremental.Replace_leaf { path; resistance; capacitance })
  | [ "scale-r"; a; f ] ->
      let* path = parse_addr h a in
      let* factor = num "factor" f in
      Ok (Rctree.Incremental.Scale_r { path; factor })
  | [ "scale-c"; a; f ] ->
      let* path = parse_addr h a in
      let* factor = num "factor" f in
      Ok (Rctree.Incremental.Scale_c { path; factor })
  | [ "buffer"; a; r; c ] ->
      let* path = parse_addr h a in
      let* resistance = num "resistance" r in
      let* capacitance = num "capacitance" c in
      Ok (Rctree.Incremental.Insert_buffer { path; resistance; capacitance })
  | [ "graft"; a; r; c ] ->
      let* path = parse_addr h a in
      let* r = num "resistance" r in
      let* c = num "capacitance" c in
      Ok (Rctree.Incremental.Graft { path; expr = Rctree.Expr.urc r c })
  | [ "prune"; a ] ->
      let* path = parse_addr h a in
      Ok (Rctree.Incremental.Prune { path })
  | [] -> Error "empty edit"
  | cmd :: _ ->
      Error
        (Printf.sprintf
           "unknown or malformed edit %S (expected replace/scale-r/scale-c/buffer/graft/prune)"
           cmd)

let parse_query h spec =
  let pieces =
    String.split_on_char ';' spec |> List.map String.trim |> List.filter (fun s -> s <> "")
  in
  if pieces = [] then Error "empty edit spec"
  else
    List.fold_left
      (fun acc piece ->
        let* edits = acc in
        let tokens = String.split_on_char ' ' piece |> List.filter (fun s -> s <> "") in
        let* e = parse_edit h tokens in
        Ok (e :: edits))
      (Ok []) pieces
    |> Result.map List.rev

let read_spec_file file =
  try
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        List.rev !lines
        |> List.map String.trim
        |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        |> Result.ok)
  with Sys_error msg -> Error msg

let json_times spec (ts : Rctree.Times.t) threshold =
  Obs.Json.Object
    (List.concat
       [
         (match spec with None -> [] | Some s -> [ ("edits", Obs.Json.String s) ]);
         [
           ("t_p", Obs.Json.Number ts.Rctree.Times.t_p);
           ("t_d", Obs.Json.Number ts.Rctree.Times.t_d);
           ("t_r", Obs.Json.Number ts.Rctree.Times.t_r);
           ("t_min", Obs.Json.Number (Rctree.Bounds.t_min ts threshold));
           ("t_max", Obs.Json.Number (Rctree.Bounds.t_max ts threshold));
         ];
       ])

let sweep_cmd path specs edits_file output_name threshold json =
  with_tree path (fun tree ->
      let bad msg =
        prerr_endline ("sweep: " ^ msg);
        2
      in
      let specs_r =
        match edits_file with
        | None -> Ok specs
        | Some f -> Result.map (fun ls -> specs @ ls) (read_spec_file f)
      in
      match specs_r with
      | Error msg -> bad msg
      | Ok [] -> bad "no edits given (use --edit SPEC or --edits-file FILE)"
      | Ok specs -> (
          let outputs = Rctree.Tree.outputs tree in
          let output_r =
            match output_name with
            | Some name -> (
                match List.assoc_opt name outputs with
                | Some id -> Ok (name, id)
                | None -> Error (Printf.sprintf "no output named %S in %s" name path))
            | None -> (
                match outputs with
                | (name, id) :: _ -> Ok (name, id)
                | [] -> Error "deck has no outputs")
          in
          match output_r with
          | Error msg -> bad msg
          | Ok (out_label, out_id) -> (
              let h = Rctree.Convert.incremental_of_tree tree ~output:out_id in
              let parsed = List.map (fun s -> (s, parse_query h s)) specs in
              match
                List.find_map
                  (function s, Error msg -> Some (s, msg) | _, Ok _ -> None)
                  parsed
              with
              | Some (s, msg) -> bad (Printf.sprintf "%S: %s" s msg)
              | None -> (
                  let queries =
                    List.filter_map (function s, Ok q -> Some (s, q) | _ -> None) parsed
                  in
                  try
                    let results =
                      Rctree.Incremental.sweep_list h (List.map snd queries)
                    in
                    let base = Rctree.Incremental.times h in
                    if json then
                      print_endline
                        (Obs.Json.to_string
                           (Obs.Json.Object
                              [
                                ("deck", Obs.Json.String path);
                                ("output", Obs.Json.String out_label);
                                ("threshold", Obs.Json.Number threshold);
                                ("base", json_times None base threshold);
                                ( "queries",
                                  Obs.Json.Array
                                    (List.map2
                                       (fun (s, _) ts -> json_times (Some s) ts threshold)
                                       queries results) );
                              ]))
                    else begin
                      Printf.printf "output %s, threshold %g\n" out_label threshold;
                      let table =
                        Reprolib.Table.create ~columns:[ "edits"; "t_min"; "t_max"; "T_De" ]
                      in
                      let row spec ts =
                        Reprolib.Table.add_row table
                          [
                            spec;
                            fmt_s (Rctree.Bounds.t_min ts threshold);
                            fmt_s (Rctree.Bounds.t_max ts threshold);
                            fmt_s ts.Rctree.Times.t_d;
                          ]
                      in
                      row "(base)" base;
                      List.iter2 (fun (s, _) ts -> row s ts) queries results;
                      Reprolib.Table.print table
                    end;
                    0
                  with Invalid_argument msg ->
                    (* a structurally invalid edit (path not in this
                       network, pruning the root, ...) is bad input *)
                    bad msg))))

let fig10_cmd () =
  let ts = Rctree.Expr.times Rctree.Expr.fig7 in
  Printf.printf "network: %s\n" (Rctree.Expr.to_string Rctree.Expr.fig7);
  Printf.printf "T_P = %g   T_De = %g   T_Re = %g\n\n" ts.Rctree.Times.t_p ts.Rctree.Times.t_d
    ts.Rctree.Times.t_r;
  let delay = Reprolib.Table.create ~columns:[ "V"; "TMIN"; "TMAX" ] in
  List.iter
    (fun v ->
      Reprolib.Table.add_row delay
        [
          Printf.sprintf "%.1f" v;
          Printf.sprintf "%.3f" (Rctree.Bounds.t_min ts v);
          Printf.sprintf "%.3f" (Rctree.Bounds.t_max ts v);
        ])
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ];
  Reprolib.Table.print delay;
  print_newline ();
  let volt = Reprolib.Table.create ~columns:[ "T"; "VMIN"; "VMAX" ] in
  List.iter
    (fun t ->
      Reprolib.Table.add_row volt
        [
          Printf.sprintf "%g" t;
          Printf.sprintf "%.5f" (Rctree.Bounds.v_min ts t);
          Printf.sprintf "%.5f" (Rctree.Bounds.v_max ts t);
        ])
    [ 20.; 40.; 60.; 80.; 100.; 200.; 300.; 400.; 500.; 1000.; 2000. ];
  Reprolib.Table.print volt;
  0

(* exercise every instrumented layer on small built-in workloads, then
   check the registry actually saw them — a smoke test for the
   observability wiring itself *)
let stats_cmd () =
  Obs.set_enabled true;
  let handle_ok = ref false in
  let incr_ok = ref false in
  Obs.Span.with_ ~name:"cli.stats.workload" (fun () ->
      let expr = Rctree.Expr.fig7 in
      ignore (Rctree.Expr.times expr);
      let tree = Rctree.Convert.tree_of_expr expr in
      let lumped = Rctree.Lump.discretize ~segments:8 tree in
      (match
         Spice.Parser.parse_string "VIN in 0\nR1 in a 15\nC1 a 0 2\n.output a\n.end\n"
       with
      | Ok deck -> ignore (Spice.Elaborate.to_tree deck)
      | Error _ -> ());
      (* both the default factor-once tree LDL^T path and the dense
         MNA + LU oracle, so treesolve.* and lu/ode counters all fire *)
      ignore
        (Circuit.Transient.simulate lumped ~dt:5. ~t_end:100.
           ~input:Circuit.Transient.step_input);
      ignore
        (Check.Stepper.simulate `Dense lumped ~dt:5. ~t_end:100.
           ~input:Circuit.Transient.step_input);
      ignore
        (Circuit.Response.step (Circuit.Response.make lumped)
           ~nodes:[| Rctree.Tree.output_named lumped "out" |]
           ~times:[| 100. |]);
      let chain = Circuit.Large.rc_chain ~sections:64 ~r:10. ~c:1e-13 in
      let out = Rctree.Tree.output_named chain "out" in
      ignore (Circuit.Large.step_response chain ~dt:1e-10 ~t_end:2e-9 ~outputs:[ out ]);
      ignore
        (Check.Stepper.simulate `Cg ~integration:Backward_euler ~nodes:[ out ] chain ~dt:1e-10
           ~t_end:2e-9 ~input:Circuit.Transient.step_input);
      let adder = Sta.Generate.ripple_carry_adder ~bits:4 () in
      ignore (Sta.Report.timing_report (Sta.Analysis.run_exn adder));
      (* a Monte-Carlo spread, the pool's client *)
      ignore
        (Tech.Variation.monte_carlo ~samples:8 Tech.Process.default_4um ~threshold:0.5
           ~build:(fun process ->
             let tree = Tech.Pla.line_tree process (Tech.Pla.default_params process) ~minterms:4 in
             (tree, Rctree.Tree.output_named tree "out")));
      (* the query handle: every node of the chain from its one
         all-node pass, against the per-output reference *)
      let h = Rctree.Analysis.make chain in
      let nodes = Array.init (Rctree.Tree.node_count chain) Fun.id in
      let close a b = Numeric.Float_cmp.approx_eq ~rtol:1e-12 ~atol:0. a b in
      handle_ok :=
        Array.for_all2
          (fun id (ts : Rctree.Times.t) ->
            let r = Rctree.Moments.times chain ~output:id in
            close ts.t_p r.t_p && close ts.t_d r.t_d && close ts.t_r r.t_r)
          nodes (Rctree.Analysis.times_of_nodes h nodes);
      (* the incremental engine: edit fig7, cross-check the memoized
         result bit-for-bit against from-scratch evaluation of the
         edited expression *)
      let h = Rctree.Convert.incremental_of_tree tree ~output:(Rctree.Tree.output_named tree "out") in
      let edit =
        Rctree.Incremental.Replace_leaf
          { path = Rctree.Incremental.leaf_path h 0; resistance = 12.; capacitance = 3. }
      in
      let swept =
        Rctree.Incremental.sweep_list h
          [ [ edit ]; [ Rctree.Incremental.Scale_r { path = []; factor = 1.5 } ] ]
      in
      let from_scratch =
        Rctree.Expr.times
          (Rctree.Incremental.edit_expr (Rctree.Incremental.to_expr h) edit)
      in
      incr_ok :=
        (match swept with
        | [ a; _ ] -> a = from_scratch && a = Rctree.Incremental.times (Rctree.Incremental.apply h edit)
        | _ -> false));
  print_string (Obs.report ());
  let counter name = Option.value (List.assoc_opt name (Obs.counters ())) ~default:0 in
  let missing =
    List.filter
      (fun name -> counter name = 0)
      [
        "cg.iterations"; "response.passes"; "lu.factorizations"; "ode.steps";
        "treesolve.factors"; "treesolve.solves";
        "transient.simulations"; "large.timesteps"; "expr.evals"; "convert.tree_of_expr";
        "spice.decks_parsed"; "spice.elaborations"; "sta.instances_visited";
        "pool.jobs"; "pool.chunks"; "rctree.analysis_handles"; "rctree.analysis_batches";
        "incr.handles"; "incr.edits"; "incr.nodes_reeval"; "incr.cache_hits"; "incr.sweeps";
        "convert.incremental_of_tree";
      ]
  in
  let no_span = Obs.Span.calls "circuit.transient" = 0 || Obs.Span.calls "sta.report" = 0 in
  if missing = [] && (not no_span) && !handle_ok && !incr_ok then begin
    print_endline "self-test: all instrumented layers reported";
    print_endline "self-test: handle agrees with per-output Moments.times to 1e-12";
    print_endline "self-test: incremental edits bit-identical to from-scratch";
    0
  end
  else begin
    List.iter (fun n -> prerr_endline ("self-test: no samples from " ^ n)) missing;
    if no_span then prerr_endline "self-test: expected spans missing";
    if not !handle_ok then prerr_endline "self-test: handle differs from per-output Moments.times";
    if not !incr_ok then prerr_endline "self-test: incremental results differ from from-scratch";
    1
  end

open Cmdliner

(* --metrics / --trace / --jobs, shared by every subcommand *)
type obs_cfg = { metrics : string option; trace : bool; jobs : int option }

let obs_term =
  let metrics =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Collect runtime metrics and print a report to stderr; with $(docv), dump JSON \
             lines there instead.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Also record individual span timings and print the trace to stderr.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains for the parallel batch analyses (default: $(b,RCDELAY_JOBS), else the \
             machine's recommended domain count).  Results are identical at any setting; \
             $(docv) = 1 disables parallelism.")
  in
  Term.(const (fun metrics trace jobs -> { metrics; trace; jobs }) $ metrics $ trace $ jobs)

let run_obs cfg name f =
  match cfg.jobs with
  | Some n when n < 1 ->
      prerr_endline "rcdelay: --jobs must be >= 1";
      2
  | jobs ->
      Option.iter Parallel.Pool.set_default_domains jobs;
      if cfg.metrics <> None || cfg.trace then Obs.set_enabled true;
      if cfg.trace then Obs.Span.set_trace true;
      let code = Obs.Span.with_ ~name:("cli." ^ name) f in
      let code =
        match cfg.metrics with
        | None | Some "" | Some "-" ->
            if cfg.metrics <> None then prerr_string (Obs.report ());
            code
        | Some file -> (
            try
              Obs.write_json_lines file;
              code
            with Sys_error msg ->
              Printf.eprintf "rcdelay: cannot write metrics: %s\n" msg;
              max code 1)
      in
      if cfg.trace then prerr_string (Obs.trace_report ());
      code

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DECK" ~doc:"SPICE-like deck file.")

let thresholds_arg =
  Arg.(
    value
    & opt (list float) [ 0.1; 0.5; 0.9 ]
    & info [ "v"; "thresholds" ] ~docv:"V,..." ~doc:"Threshold voltages (fractions of the swing).")

let times_arg =
  Arg.(
    value
    & opt (list float) []
    & info [ "t"; "times" ] ~docv:"T,..." ~doc:"Sample times (seconds).")

let threshold_arg =
  Arg.(value & opt float 0.5 & info [ "v"; "threshold" ] ~docv:"V" ~doc:"Threshold voltage.")

let deadline_arg =
  Arg.(required & opt (some float) None & info [ "deadline" ] ~docv:"T" ~doc:"Deadline (seconds).")

let t_end_arg =
  Arg.(required & opt (some float) None & info [ "t-end" ] ~docv:"T" ~doc:"Simulation end time.")

(* checked converters: a value outside the flag's range is a usage
   error, exit 2 with cmdliner's message naming the flag *)
let checked conv ok expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) -> Error (`Msg (Printf.sprintf "expected %s, got %s" expected s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

(* sample and frequency-point counts: each grid runs from its first to
   its last value in N - 1 steps, so it needs N >= 2 *)
let count = checked Arg.int (fun n -> n >= 2) "a count of at least 2"

(* a required time, hold time or the like *)
let time = checked Arg.float (fun t -> Float.is_finite t && t >= 0.) "a finite time >= 0"

let samples_arg =
  Arg.(
    value & opt count 101
    & info [ "samples" ] ~docv:"N" ~doc:"Number of output samples (at least 2).")

let segments_arg =
  Arg.(
    value & opt int Circuit.Measure.default_segments
    & info [ "segments" ] ~docv:"N" ~doc:"Lumped sections per distributed line.")

let minterms_arg =
  Arg.(
    value
    & opt (list int) [ 2; 4; 10; 20; 40; 100 ]
    & info [ "minterms" ] ~docv:"N,..." ~doc:"Minterm counts to sweep.")

let pla_threshold_arg =
  Arg.(value & opt float 0.7 & info [ "v"; "threshold" ] ~docv:"V" ~doc:"Threshold voltage.")

let cmd_times =
  Cmd.v (Cmd.info "times" ~doc:"Characteristic times of every output")
    Term.(
      const (fun obs path -> run_obs obs "times" (fun () -> times_cmd path))
      $ obs_term $ file_arg)

let cmd_bounds =
  Cmd.v (Cmd.info "bounds" ~doc:"Delay bounds at thresholds")
    Term.(
      const (fun obs path vs -> run_obs obs "bounds" (fun () -> bounds_cmd path vs))
      $ obs_term $ file_arg $ thresholds_arg)

let cmd_voltage =
  Cmd.v (Cmd.info "voltage" ~doc:"Voltage bounds at sample times")
    Term.(
      const (fun obs path ts -> run_obs obs "voltage" (fun () -> voltage_cmd path ts))
      $ obs_term $ file_arg $ times_arg)

let cmd_certify =
  Cmd.v
    (Cmd.info "certify" ~doc:"Check every output against a threshold and deadline (exit 1 unless all pass)")
    Term.(
      const (fun obs path v d -> run_obs obs "certify" (fun () -> certify_cmd path v d))
      $ obs_term $ file_arg $ threshold_arg $ deadline_arg)

let cmd_simulate =
  Cmd.v (Cmd.info "simulate" ~doc:"Exact step response as CSV")
    Term.(
      const (fun obs path t n s -> run_obs obs "simulate" (fun () -> simulate_cmd path t n s))
      $ obs_term $ file_arg $ t_end_arg $ samples_arg $ segments_arg)

let dt_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "dt" ] ~docv:"T" ~doc:"Time step (default: $(b,--t-end) / 1000).")

let solver_arg =
  Arg.(
    value & opt string "direct"
    & info [ "solver" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Per-step linear solver: $(b,direct) (factor-once zero-fill-in tree LDL^T, the \
              default) or one of the two oracles it is checked against, which step the same \
              discrete system: $(b,cg) (matrix-free conjugate gradients, stopped at a relative \
              residual of 1e-12 of the right-hand side, so values below about 1e-9 of the \
              swing are not converged and may be off by a factor of 2 or read 0) or \
              $(b,dense) (MNA + LU, O(n^2) memory, at most %d unknowns)."
             Check.Mna.max_unknowns))

let integration_arg =
  Arg.(
    value & opt string "trap"
    & info [ "integration" ] ~docv:"METHOD"
        ~doc:"Integration method: $(b,trap) (trapezoidal, the default) or $(b,be) (backward \
              Euler).")

let cmd_transient =
  Cmd.v
    (Cmd.info "transient"
       ~doc:"Time-stepping step response as CSV, with a selectable per-step solver")
    Term.(
      const (fun obs path dt t slv intg n s ->
          run_obs obs "transient" (fun () -> transient_cmd path dt t slv intg n s))
      $ obs_term $ file_arg $ dt_arg $ t_end_arg $ solver_arg $ integration_arg $ samples_arg
      $ segments_arg)

let cmd_pla =
  Cmd.v (Cmd.info "pla" ~doc:"PLA AND-plane delay sweep (paper Section V)")
    Term.(
      const (fun obs ms v -> run_obs obs "pla" (fun () -> pla_cmd ms v))
      $ obs_term $ minterms_arg $ pla_threshold_arg)

let cmd_fig10 =
  Cmd.v (Cmd.info "fig10" ~doc:"Reproduce the paper's Fig. 10 session")
    Term.(const (fun obs () -> run_obs obs "fig10" fig10_cmd) $ obs_term $ const ())

let rise_arg =
  Arg.(required & opt (some float) None & info [ "rise" ] ~docv:"T" ~doc:"Input rise time (seconds).")

let order_arg =
  Arg.(value & opt int 3 & info [ "order" ] ~docv:"N" ~doc:"Highest moment order to print.")

let points_arg =
  Arg.(
    value & opt count 9
    & info [ "points" ] ~docv:"N" ~doc:"Frequency points in the Bode table (at least 2).")

let cmd_ramp =
  Cmd.v
    (Cmd.info "ramp" ~doc:"Crossing-time bounds under a ramp input (superposition extension)")
    Term.(
      const (fun obs path r v -> run_obs obs "ramp" (fun () -> ramp_cmd path r v))
      $ obs_term $ file_arg $ rise_arg $ threshold_arg)

let cmd_moments =
  Cmd.v
    (Cmd.info "moments" ~doc:"Higher transfer-function moments and the fitted two-pole model")
    Term.(
      const (fun obs path o s -> run_obs obs "moments" (fun () -> moments_cmd path o s))
      $ obs_term $ file_arg $ order_arg $ segments_arg)

let cmd_ac =
  Cmd.v (Cmd.info "ac" ~doc:"Frequency response: -3dB bandwidth and a Bode table")
    Term.(
      const (fun obs path p s -> run_obs obs "ac" (fun () -> ac_cmd path p s))
      $ obs_term $ file_arg $ points_arg $ segments_arg)

let period_arg =
  Arg.(
    value
    & opt (some time) None
    & info [ "period" ] ~docv:"T" ~doc:"Required time for slack/verdicts (seconds).")

let elmore_flag =
  Arg.(value & flag & info [ "elmore" ] ~doc:"Use Elmore point estimates instead of PR windows.")

let hold_arg =
  Arg.(
    value
    & opt (some time) None
    & info [ "hold" ] ~docv:"T" ~doc:"Hold requirement checked against the early edges (seconds).")

let cmd_sta =
  Cmd.v
    (Cmd.info "sta" ~doc:"Static timing analysis of a gate-level netlist file")
    Term.(
      const (fun obs path p h e -> run_obs obs "sta" (fun () -> sta_cmd path p h e))
      $ obs_term $ file_arg $ period_arg $ hold_arg $ elmore_flag)

let adder_cmd bits period =
  let d = Sta.Generate.ripple_carry_adder ~bits () in
  Printf.printf "%d-bit ripple-carry adder: %d nand2 instances, logic depth %d\n\n" bits
    (List.length (Sta.Design.instances d))
    (Sta.Generate.carry_chain_depth ~bits);
  let r = Sta.Analysis.run_exn d in
  print_string (Sta.Report.timing_report ?period r);
  Printf.printf "minimum certified period: %s\n"
    (Rctree.Units.format_quantity ~unit_symbol:"s" (Sta.Analysis.required_period r));
  0

let bits_arg =
  Arg.(
    value
    & opt (checked int (fun n -> n >= 1) "a count of at least 1") 8
    & info [ "bits" ] ~docv:"N" ~doc:"Adder width in bits (at least 1).")

let cmd_adder =
  Cmd.v
    (Cmd.info "adder" ~doc:"Generate and time a ripple-carry adder (STA demo at block scale)")
    Term.(
      const (fun obs b p -> run_obs obs "adder" (fun () -> adder_cmd b p))
      $ obs_term $ bits_arg $ period_arg)

let edit_arg =
  Arg.(
    value & opt_all string []
    & info [ "e"; "edit" ] ~docv:"SPEC"
        ~doc:
          "A what-if query: one edit, or several separated by ';' applied cumulatively.  \
           Edits are $(b,replace ADDR R C), $(b,scale-r ADDR F), $(b,scale-c ADDR F), \
           $(b,buffer ADDR R C), $(b,graft ADDR R C), $(b,prune ADDR); ADDR is $(b,root), \
           $(b,leaf:N), or a path of l/r/b steps.  Repeatable; queries are independent.")

let edits_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "edits-file" ] ~docv:"FILE"
        ~doc:"Read one query per line ('#' comments and blank lines skipped).")

let output_name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"NAME"
        ~doc:"Output node to analyse (default: the deck's first output).")

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead of a table.")

let cmd_sweep =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Incremental what-if queries: delay windows of edited variants of one deck")
    Term.(
      const (fun obs path es f o v j ->
          run_obs obs "sweep" (fun () -> sweep_cmd path es f o v j))
      $ obs_term $ file_arg $ edit_arg $ edits_file_arg $ output_name_arg $ threshold_arg
      $ json_flag)

let cmd_stats =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Metrics self-test: run built-in workloads and report every instrumented layer")
    Term.(const (fun obs () -> run_obs obs "stats" stats_cmd) $ obs_term $ const ())

(* selfcheck: the differential fuzzing harness of lib/check *)

let selfcheck_cmd budget cases seed props inject corpus_dir =
  let invalid msg =
    prerr_endline ("rcdelay: selfcheck: " ^ msg);
    2
  in
  let props_result =
    List.fold_left
      (fun acc name ->
        match (acc, Check.Prop.find name) with
        | (Error _ as e), _ -> e
        | Ok _, None ->
            Error
              (Printf.sprintf "unknown property %s (known: %s)" name
                 (String.concat ", " Check.Prop.names))
        | Ok ps, Some p -> Ok (p :: ps))
      (Ok []) props
  in
  let fault_result =
    match inject with
    | None -> Ok None
    | Some name -> (
        match Check.Fault.of_string name with
        | Some f -> Ok (Some f)
        | None ->
            Error
              (Printf.sprintf "unknown fault %s (known: %s)" name
                 (String.concat ", " (List.map Check.Fault.to_string Check.Fault.all))))
  in
  match (props_result, fault_result) with
  | Error m, _ | _, Error m -> invalid m
  | Ok _, _ when (match budget with Some b -> b <= 0. | None -> false) ->
      invalid "--budget must be positive"
  | Ok _, _ when match cases with Some n -> n < 1 | None -> false ->
      invalid "--cases must be >= 1"
  | Ok rev_props, Ok fault ->
      let properties = match rev_props with [] -> Check.Prop.all | ps -> List.rev ps in
      let budget = if budget = None && cases = None then Some 10. else budget in
      (match fault with
      | Some f ->
          Printf.printf "injecting fault %s: %s\n" (Check.Fault.to_string f)
            (Check.Fault.describe f)
      | None -> ());
      let report = Check.Runner.run ~properties ?fault ?corpus_dir ?cases ?budget ~seed () in
      let table = Reprolib.Table.create ~columns:[ "property"; "cases"; "fail"; "mean ms" ] in
      List.iter
        (fun (s : Check.Runner.stat) ->
          Reprolib.Table.add_row table
            [
              s.Check.Runner.property;
              string_of_int s.Check.Runner.cases;
              string_of_int s.Check.Runner.failures;
              Printf.sprintf "%.2f" (s.Check.Runner.total_ms /. float_of_int (max 1 s.Check.Runner.cases));
            ])
        report.Check.Runner.stats;
      Reprolib.Table.print table;
      List.iter
        (fun (f : Check.Runner.failure) ->
          Printf.printf "\ncounterexample: property %s, case %d, shrunk %d -> %d nodes in %d steps\n"
            f.Check.Runner.property f.Check.Runner.case_index
            (Check.Case.node_count f.Check.Runner.case)
            (Check.Case.node_count f.Check.Runner.shrunk)
            f.Check.Runner.shrink_steps;
          Printf.printf "  %s\n" f.Check.Runner.message;
          (match f.Check.Runner.file with
          | Some path -> Printf.printf "  persisted: %s\n" path
          | None -> ());
          String.split_on_char '\n' (Check.Case.to_deck_string f.Check.Runner.shrunk)
          |> List.iter (fun line -> if line <> "" then Printf.printf "    %s\n" line))
        report.Check.Runner.failures;
      let n_failures = List.length report.Check.Runner.failures in
      Printf.printf "\nselfcheck: %d cases, %d failures (seed %d, %.1f s)\n"
        report.Check.Runner.cases n_failures seed report.Check.Runner.elapsed;
      if n_failures = 0 then 0 else 1

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget" ] ~docv:"SECS"
        ~doc:
          "Keep drawing fresh cases until $(docv) seconds of wall clock have elapsed (default \
           10 when $(b,--cases) is not given).")

let cases_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cases" ] ~docv:"N"
        ~doc:"Check exactly $(docv) cases instead of a time budget (deterministic count).")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Fuzzing seed.  Case $(i,k) depends only on the seed and $(i,k), so any failure \
           reproduces at any $(b,--jobs) setting.")

let props_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "props" ] ~docv:"NAME,..."
        ~doc:"Restrict to these catalog properties (default: all).")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"FAULT"
        ~doc:
          "Deliberately corrupt one bound (or the direct solver's factorization) to watch the \
           harness catch, shrink and persist a counterexample: $(b,drop-vmax-exp), \
           $(b,elmore-tmax), $(b,inflate-tmin), $(b,swap-tr-td) or $(b,skew-ldl-pivot).")

let corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Persist every shrunk counterexample as a replayable deck under $(docv).")

let cmd_selfcheck =
  Cmd.v
    (Cmd.info "selfcheck"
       ~doc:
         "Differential fuzzing: random RC trees checked against independent exact-simulation \
          oracles, with shrinking and a counterexample corpus")
    Term.(
      const (fun obs b c s p i d ->
          run_obs obs "selfcheck" (fun () -> selfcheck_cmd b c s p i d))
      $ obs_term $ budget_arg $ cases_arg $ seed_arg $ props_arg $ inject_arg $ corpus_arg)

let main =
  Cmd.group
    (Cmd.info "rcdelay" ~version:"1.0.0"
       ~doc:"Penfield-Rubinstein signal delay bounds for RC tree networks")
    [
      cmd_times; cmd_bounds; cmd_voltage; cmd_certify; cmd_simulate; cmd_transient; cmd_pla;
      cmd_fig10; cmd_ramp; cmd_moments; cmd_ac; cmd_sta; cmd_adder; cmd_sweep; cmd_stats;
      cmd_selfcheck;
    ]

(* a command line cmdliner cannot parse (an unknown flag, a missing
   argument or subcommand) is bad input like any other: exit 2 *)
let run argv =
  let code = Cmd.eval' ~argv main in
  if code = Cmd.Exit.cli_error then 2 else code
