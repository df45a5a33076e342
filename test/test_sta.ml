(* Tests of the static-timing-analysis engine: cell library, design
   construction, the timing graph, per-net delay windows and arrival
   propagation. *)

let check_close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let process = Tech.Process.default_4um
let lib = Sta.Celllib.default process
let pin instance p = { Sta.Design.instance; pin = p }

(* a drive with clean numbers for hand calculation:
   R = 1000 ohm, no output parasitics *)
let unit_drive = Tech.Mosfet.driver ~name:"unit" ~on_resistance:1000. ~output_capacitance:0. ()

(* a one-input cell with pin capacitance 1 pF and zero intrinsic delay *)
let probe_cell =
  Sta.Celllib.make ~name:"probe" ~inputs:[ ("a", 1e-12) ] ~intrinsic_delay:0. ~drive:unit_drive ()

let probe_lib = Sta.Celllib.library [ probe_cell ]

let celllib_tests =
  [
    Alcotest.test_case "make and accessors" `Quick (fun () ->
        check_close ~eps:1e-15 "cap" 1e-12 (Sta.Celllib.input_capacitance probe_cell "a");
        check_bool "has" true (Sta.Celllib.has_input probe_cell "a");
        check_bool "hasn't" false (Sta.Celllib.has_input probe_cell "z");
        check_string "output" "y" probe_cell.Sta.Celllib.output);
    Alcotest.test_case "make validations" `Quick (fun () ->
        check_invalid "no inputs" (fun () ->
            Sta.Celllib.make ~name:"x" ~inputs:[] ~intrinsic_delay:0. ~drive:unit_drive ());
        check_invalid "dup pins" (fun () ->
            Sta.Celllib.make ~name:"x"
              ~inputs:[ ("a", 0.); ("a", 0.) ]
              ~intrinsic_delay:0. ~drive:unit_drive ());
        check_invalid "neg delay" (fun () ->
            Sta.Celllib.make ~name:"x" ~inputs:[ ("a", 0.) ] ~intrinsic_delay:(-1.)
              ~drive:unit_drive ());
        check_invalid "output collides" (fun () ->
            Sta.Celllib.make ~name:"x" ~inputs:[ ("y", 0.) ] ~intrinsic_delay:0. ~drive:unit_drive ()));
    Alcotest.test_case "library lookup" `Quick (fun () ->
        check_string "found" "probe" (Sta.Celllib.find probe_lib "probe").Sta.Celllib.cell_name;
        check_bool "missing" true
          (match Sta.Celllib.find probe_lib "zz" with
          | _ -> false
          | exception Not_found -> true));
    Alcotest.test_case "library rejects duplicates" `Quick (fun () ->
        check_invalid "dup" (fun () -> Sta.Celllib.library [ probe_cell; probe_cell ]));
    Alcotest.test_case "default library has the basics" `Quick (fun () ->
        List.iter
          (fun name ->
            check_bool name true
              (match Sta.Celllib.find lib name with _ -> true | exception Not_found -> false))
          [ "inv1"; "inv4"; "nand2"; "nor2"; "buf4" ]);
    Alcotest.test_case "default nand2 has two inputs" `Quick (fun () ->
        check_int "inputs" 2 (List.length (Sta.Celllib.find lib "nand2").Sta.Celllib.inputs));
  ]

(* inverter chain: pi -> u1 -> u2 -> out *)
let chain () =
  let d = Sta.Design.create probe_lib in
  Sta.Design.add_instance d ~cell:"probe" "u1";
  Sta.Design.add_instance d ~cell:"probe" "u2";
  Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "u1" "a" ] "n0";
  Sta.Design.add_net d
    ~driver:(Sta.Design.Cell_output (pin "u1" "y"))
    ~loads:[ pin "u2" "a" ] "n1";
  Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "u2" "y")) ~loads:[] "n2";
  Sta.Design.mark_primary_output d "n2";
  d

let design_tests =
  [
    Alcotest.test_case "chain design is clean" `Quick (fun () ->
        Alcotest.(check (list string)) "no problems" [] (Sta.Design.check (chain ())));
    Alcotest.test_case "instances sorted" `Quick (fun () ->
        let names = List.map fst (Sta.Design.instances (chain ())) in
        Alcotest.(check (list string)) "names" [ "u1"; "u2" ] names);
    Alcotest.test_case "net lookup" `Quick (fun () ->
        let d = chain () in
        check_string "name" "n1" (Sta.Design.net d "n1").Sta.Design.net_name;
        check_int "nets" 3 (List.length (Sta.Design.nets d)));
    Alcotest.test_case "net_driven_by" `Quick (fun () ->
        let d = chain () in
        match Sta.Design.net_driven_by d "u1" with
        | Some n -> check_string "net" "n1" n.Sta.Design.net_name
        | None -> Alcotest.fail "u1 should drive n1");
    Alcotest.test_case "nets_loading" `Quick (fun () ->
        let d = chain () in
        match Sta.Design.nets_loading d "u2" with
        | [ n ] -> check_string "net" "n1" n.Sta.Design.net_name
        | other -> Alcotest.failf "expected 1 net, got %d" (List.length other));
    Alcotest.test_case "duplicate instance rejected" `Quick (fun () ->
        let d = chain () in
        check_invalid "dup" (fun () -> Sta.Design.add_instance d ~cell:"probe" "u1"));
    Alcotest.test_case "unknown cell rejected" `Quick (fun () ->
        let d = chain () in
        check_invalid "cell" (fun () -> Sta.Design.add_instance d ~cell:"zz" "u9"));
    Alcotest.test_case "duplicate net rejected" `Quick (fun () ->
        let d = chain () in
        check_invalid "dup" (fun () ->
            Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[] "n0"));
    Alcotest.test_case "load pin reuse rejected" `Quick (fun () ->
        let d = chain () in
        check_invalid "reuse" (fun () ->
            Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "u1" "a" ]
              "extra"));
    Alcotest.test_case "unknown load pin rejected" `Quick (fun () ->
        let d = chain () in
        check_invalid "pin" (fun () ->
            Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "u1" "zz" ]
              "extra"));
    Alcotest.test_case "double-driven instance rejected" `Quick (fun () ->
        let d = chain () in
        check_invalid "driver" (fun () ->
            Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "u1" "y")) ~loads:[] "extra"));
    Alcotest.test_case "wrong output pin rejected" `Quick (fun () ->
        let d = Sta.Design.create probe_lib in
        Sta.Design.add_instance d ~cell:"probe" "u1";
        check_invalid "pin" (fun () ->
            Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "u1" "q")) ~loads:[] "n"));
    Alcotest.test_case "check reports unconnected input" `Quick (fun () ->
        let d = Sta.Design.create probe_lib in
        Sta.Design.add_instance d ~cell:"probe" "lonely";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "lonely" "y")) ~loads:[] "n";
        Sta.Design.mark_primary_output d "n";
        check_bool "reported" true
          (List.exists
             (fun s -> String.length s > 0 && String.sub s 0 5 = "input")
             (Sta.Design.check d)));
    Alcotest.test_case "mark_primary_output unknown net rejected" `Quick (fun () ->
        let d = chain () in
        check_invalid "po" (fun () -> Sta.Design.mark_primary_output d "zz"));
    Alcotest.test_case "error messages are pinned" `Quick (fun () ->
        let message f =
          match f () with
          | _ -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument m -> m
        in
        let primary loads name () =
          Sta.Design.add_net (chain ()) ~driver:(Sta.Design.Primary unit_drive) ~loads name
        in
        let driven_by p name () =
          Sta.Design.add_net (chain ()) ~driver:(Sta.Design.Cell_output p) ~loads:[] name
        in
        List.iter
          (fun (what, expected, f) -> check_string what expected (message f))
          [
            ( "duplicate instance",
              "Design.add_instance: duplicate instance \"u1\"",
              fun () -> Sta.Design.add_instance (chain ()) ~cell:"probe" "u1" );
            ( "unknown cell",
              "Design.add_instance: unknown cell \"zz\"",
              fun () -> Sta.Design.add_instance (chain ()) ~cell:"zz" "u9" );
            ("duplicate net", "Design.add_net: duplicate net \"n0\"", primary [] "n0");
            ( "unknown driver instance",
              "Design.add_net: unknown instance \"ghost\"",
              driven_by (pin "ghost" "y") "x" );
            ( "wrong output pin",
              "Design.add_net: \"u1\" output pin is \"y\", not \"q\"",
              driven_by (pin "u1" "q") "x" );
            ( "double drive",
              "Design.add_net: instance \"u1\" already drives a net",
              driven_by (pin "u1" "y") "x" );
            ( "unknown load instance",
              "Design.add_net: unknown instance \"ghost\"",
              primary [ pin "ghost" "a" ] "x" );
            ( "missing input pin",
              "Design.add_net: \"u1\" has no input pin \"zz\" (cell probe)",
              primary [ pin "u1" "zz" ] "x" );
            ( "pin loaded twice",
              "Design.add_net: pin u2/a already loaded by net \"n1\"",
              primary [ pin "u2" "a" ] "x" );
            ( "unknown primary output",
              "Design.mark_primary_output: unknown net \"zz\"",
              fun () -> Sta.Design.mark_primary_output (chain ()) "zz" );
          ]);
    Alcotest.test_case "failed add_net keeps what it checked" `Quick (fun () ->
        (* the driver and the loads before the bad one stay claimed *)
        let d = Sta.Design.create probe_lib in
        List.iter (fun n -> Sta.Design.add_instance d ~cell:"probe" n) [ "u1"; "u2"; "u3" ];
        check_invalid "bad load" (fun () ->
            Sta.Design.add_net d
              ~driver:(Sta.Design.Cell_output (pin "u1" "y"))
              ~loads:[ pin "u2" "a"; pin "ghost" "a"; pin "u3" "a" ]
              "half");
        check_bool "net not added" true
          (match Sta.Design.net d "half" with _ -> false | exception Not_found -> true);
        let message f = match f () with _ -> "" | exception Invalid_argument m -> m in
        check_string "driver claimed" "Design.add_net: instance \"u1\" already drives a net"
          (message (fun () ->
               Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "u1" "y")) ~loads:[] "n"));
        check_string "first load claimed"
          "Design.add_net: pin u2/a already loaded by net \"half\""
          (message (fun () ->
               Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive)
                 ~loads:[ pin "u2" "a" ] "n"));
        Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "u3" "a" ] "n";
        Alcotest.(check (list string))
          "check"
          [ "input pin u1/a is unconnected"; "output of instance u2 drives nothing";
            "output of instance u3 drives nothing" ]
          (Sta.Design.check d));
    Alcotest.test_case "repeated output kept once, first-marking order" `Quick (fun () ->
        let d = chain () in
        Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[] "spare";
        List.iter (Sta.Design.mark_primary_output d) [ "n1"; "n2"; "n1"; "spare"; "n2" ];
        Alcotest.(check (list string))
          "outputs" [ "n2"; "n1"; "spare" ] (Sta.Design.primary_outputs d));
    Alcotest.test_case "check list is pinned" `Quick (fun () ->
        let d = Sta.Design.create lib in
        List.iter
          (fun (cell, name) -> Sta.Design.add_instance d ~cell name)
          [ ("nand2", "g2"); ("inv1", "g1"); ("nand2", "g0"); ("inv1", "g3") ];
        Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive)
          ~loads:[ pin "g2" "b"; pin "g1" "a" ] "pi";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "g1" "y")) ~loads:[] "dangling";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "g2" "y")) ~loads:[] "seen";
        Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[] "idle";
        Sta.Design.mark_primary_output d "seen";
        Alcotest.(check (list string))
          "problems"
          [
            "input pin g0/a is unconnected";
            "input pin g0/b is unconnected";
            "output of instance g0 drives nothing";
            "input pin g2/a is unconnected";
            "input pin g3/a is unconnected";
            "output of instance g3 drives nothing";
            "net dangling has no loads and is not a primary output";
            "net idle has no loads and is not a primary output";
          ]
          (Sta.Design.check d));
  ]

let graph_tests =
  [
    Alcotest.test_case "chain topology" `Quick (fun () ->
        let g = Sta.Graph.of_design (chain ()) in
        Alcotest.(check (list string)) "preds u2" [ "u1" ] (Sta.Graph.predecessors g "u2");
        Alcotest.(check (list string)) "succs u1" [ "u2" ] (Sta.Graph.successors g "u1");
        Alcotest.(check (list string)) "preds u1" [] (Sta.Graph.predecessors g "u1"));
    Alcotest.test_case "topological order respects edges" `Quick (fun () ->
        match Sta.Graph.topological_order (Sta.Graph.of_design (chain ())) with
        | Ok [ "u1"; "u2" ] -> ()
        | Ok other -> Alcotest.failf "bad order: %s" (String.concat "," other)
        | Error _ -> Alcotest.fail "unexpected cycle");
    Alcotest.test_case "levels" `Quick (fun () ->
        let levels = Sta.Graph.levels (Sta.Graph.of_design (chain ())) in
        check_int "u1" 0 (List.assoc "u1" levels);
        check_int "u2" 1 (List.assoc "u2" levels));
    Alcotest.test_case "cycle detected" `Quick (fun () ->
        let d = Sta.Design.create probe_lib in
        Sta.Design.add_instance d ~cell:"probe" "a";
        Sta.Design.add_instance d ~cell:"probe" "b";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "a" "y")) ~loads:[ pin "b" "a" ]
          "nab";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "b" "y")) ~loads:[ pin "a" "a" ]
          "nba";
        (match Sta.Graph.topological_order (Sta.Graph.of_design d) with
        | Error stuck -> check_int "both stuck" 2 (List.length stuck)
        | Ok _ -> Alcotest.fail "cycle not detected"));
    Alcotest.test_case "diamond converges" `Quick (fun () ->
        let d = Sta.Design.create lib in
        Sta.Design.add_instance d ~cell:"inv1" "top";
        Sta.Design.add_instance d ~cell:"inv1" "left";
        Sta.Design.add_instance d ~cell:"inv1" "right";
        Sta.Design.add_instance d ~cell:"nand2" "join";
        Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "top" "a" ] "pi";
        Sta.Design.add_net d
          ~driver:(Sta.Design.Cell_output (pin "top" "y"))
          ~loads:[ pin "left" "a"; pin "right" "a" ]
          "fan";
        Sta.Design.add_net d
          ~driver:(Sta.Design.Cell_output (pin "left" "y"))
          ~loads:[ pin "join" "a" ] "l";
        Sta.Design.add_net d
          ~driver:(Sta.Design.Cell_output (pin "right" "y"))
          ~loads:[ pin "join" "b" ] "r";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "join" "y")) ~loads:[] "po";
        Sta.Design.mark_primary_output d "po";
        let levels = Sta.Graph.levels (Sta.Graph.of_design d) in
        check_int "join depth" 2 (List.assoc "join" levels));
    Alcotest.test_case "16-bit adder graph matches a reference" `Quick (fun () ->
        let d = Sta.Generate.ripple_carry_adder ~bits:16 () in
        let g = Sta.Graph.of_design d in
        let names = List.map fst (Sta.Design.instances d) in
        (* reference adjacency straight from the net list *)
        let edges =
          List.concat_map
            (fun (net : Sta.Design.net) ->
              match net.Sta.Design.driver with
              | Sta.Design.Primary _ -> []
              | Sta.Design.Cell_output { instance = src; _ } ->
                  List.map (fun (l : Sta.Design.pin) -> (src, l.Sta.Design.instance)) net.loads)
            (Sta.Design.nets d)
        in
        let ends keep = List.sort_uniq compare (List.filter_map keep edges) in
        let preds n = ends (fun (a, b) -> if b = n then Some a else None) in
        let succs n = ends (fun (a, b) -> if a = n then Some b else None) in
        List.iter
          (fun n ->
            Alcotest.(check (list string)) ("preds " ^ n) (preds n) (Sta.Graph.predecessors g n);
            Alcotest.(check (list string)) ("succs " ^ n) (succs n) (Sta.Graph.successors g n))
          names;
        (* reference order: Kahn's algorithm over sorted names, FIFO,
           successors visited in sorted order *)
        let indegree = Hashtbl.create 16 in
        List.iter (fun n -> Hashtbl.replace indegree n (List.length (preds n))) names;
        let rec kahn acc = function
          | [] -> List.rev acc
          | n :: queue ->
              let ready =
                List.filter
                  (fun s ->
                    let k = Hashtbl.find indegree s - 1 in
                    Hashtbl.replace indegree s k;
                    k = 0)
                  (succs n)
              in
              kahn (n :: acc) (queue @ ready)
        in
        let order = kahn [] (List.filter (fun n -> preds n = []) names) in
        (match Sta.Graph.topological_order g with
        | Ok o -> Alcotest.(check (list string)) "order" order o
        | Error _ -> Alcotest.fail "unexpected cycle");
        let level = Hashtbl.create 16 in
        List.iter
          (fun n ->
            Hashtbl.replace level n
              (List.fold_left (fun acc p -> Int.max acc (Hashtbl.find level p + 1)) 0 (preds n)))
          order;
        Alcotest.(check (list (pair string int)))
          "levels"
          (List.map (fun n -> (n, Hashtbl.find level n)) order)
          (Sta.Graph.levels g);
        Alcotest.(check (list string)) "unknown" [] (Sta.Graph.predecessors g "zz"));
    Alcotest.test_case "cycle stuck list is pinned" `Quick (fun () ->
        let d = Sta.Design.create probe_lib in
        List.iter (fun n -> Sta.Design.add_instance d ~cell:"probe" n) [ "c"; "b"; "a"; "z"; "q" ];
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "a" "y")) ~loads:[ pin "b" "a" ]
          "nab";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "b" "y"))
          ~loads:[ pin "a" "a"; pin "c" "a" ] "nba";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "c" "y")) ~loads:[ pin "z" "a" ]
          "ncz";
        Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "q" "a" ] "pq";
        let g = Sta.Graph.of_design d in
        (match Sta.Graph.topological_order g with
        | Error stuck -> Alcotest.(check (list string)) "stuck" [ "a"; "b"; "c"; "z" ] stuck
        | Ok _ -> Alcotest.fail "cycle not detected");
        check_invalid "levels" (fun () -> Sta.Graph.levels g));
  ]

let netdelay_tests =
  [
    Alcotest.test_case "direct net is a single pole" `Quick (fun () ->
        (* R = 1000, C = 1 pF: window edges coincide at RC ln 2 *)
        let d = chain () in
        let net = Sta.Design.net d "n0" in
        (match Sta.Netdelay.sink_delays d net with
        | [ sd ] ->
            let lo, hi = sd.Sta.Netdelay.window in
            check_close ~eps:1e-13 "tmin" (1e-9 *. log 2.) lo;
            check_close ~eps:1e-13 "tmax" (1e-9 *. log 2.) hi;
            check_close ~eps:1e-13 "elmore" 1e-9 sd.Sta.Netdelay.elmore
        | _ -> Alcotest.fail "expected one sink"));
    Alcotest.test_case "line wire adds distributed delay" `Quick (fun () ->
        let d = Sta.Design.create probe_lib in
        Sta.Design.add_instance d ~cell:"probe" "u1";
        Sta.Design.add_net d
          ~wire:(Sta.Design.Line { resistance = 1000.; capacitance = 1e-12 })
          ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "u1" "a" ] "n";
        let net = Sta.Design.net d "n" in
        (match Sta.Netdelay.sink_delays d net with
        | [ sd ] ->
            (* Elmore: Rdrv*(Cline + Cpin) + Rline*(Cline/2 + Cpin) = 2 + 1.5 ns *)
            check_close ~eps:1e-12 "elmore" 3.5e-9 sd.Sta.Netdelay.elmore
        | _ -> Alcotest.fail "expected one sink"));
    Alcotest.test_case "star gives each sink its own line" `Quick (fun () ->
        let d = Sta.Design.create probe_lib in
        Sta.Design.add_instance d ~cell:"probe" "u1";
        Sta.Design.add_instance d ~cell:"probe" "u2";
        Sta.Design.add_net d
          ~wire:(Sta.Design.Star { resistance = 500.; capacitance = 0.5e-12 })
          ~driver:(Sta.Design.Primary unit_drive)
          ~loads:[ pin "u1" "a"; pin "u2" "a" ]
          "n";
        let tree = Sta.Netdelay.tree_of_net d (Sta.Design.net d "n") in
        check_int "outputs" 2 (List.length (Rctree.Tree.outputs tree));
        (* both sinks see identical structure -> identical windows *)
        (match Sta.Netdelay.sink_delays d (Sta.Design.net d "n") with
        | [ a; b ] -> check_close ~eps:1e-15 "symmetric" a.Sta.Netdelay.elmore b.Sta.Netdelay.elmore
        | _ -> Alcotest.fail "expected two sinks"));
    Alcotest.test_case "daisy penalizes the far sink" `Quick (fun () ->
        let d = Sta.Design.create probe_lib in
        Sta.Design.add_instance d ~cell:"probe" "near";
        Sta.Design.add_instance d ~cell:"probe" "far";
        Sta.Design.add_net d
          ~wire:(Sta.Design.Daisy { resistance = 1000.; capacitance = 1e-12 })
          ~driver:(Sta.Design.Primary unit_drive)
          ~loads:[ pin "near" "a"; pin "far" "a" ]
          "n";
        (match Sta.Netdelay.sink_delays d (Sta.Design.net d "n") with
        | [ near; far ] ->
            check_bool "far is later" true (far.Sta.Netdelay.elmore > near.Sta.Netdelay.elmore)
        | _ -> Alcotest.fail "expected two sinks"));
    Alcotest.test_case "lumped wire adds only capacitance" `Quick (fun () ->
        let d = Sta.Design.create probe_lib in
        Sta.Design.add_instance d ~cell:"probe" "u1";
        Sta.Design.add_net d ~wire:(Sta.Design.Lumped 1e-12) ~driver:(Sta.Design.Primary unit_drive)
          ~loads:[ pin "u1" "a" ] "n";
        (match Sta.Netdelay.sink_delays d (Sta.Design.net d "n") with
        | [ sd ] -> check_close ~eps:1e-12 "elmore" 2e-9 sd.Sta.Netdelay.elmore
        | _ -> Alcotest.fail "expected one sink"));
    Alcotest.test_case "worst_window of a loadless net uses the wire end" `Quick (fun () ->
        let d = Sta.Design.create probe_lib in
        Sta.Design.add_net d
          ~wire:(Sta.Design.Line { resistance = 1000.; capacitance = 1e-12 })
          ~driver:(Sta.Design.Primary unit_drive) ~loads:[] "n";
        let lo, hi = Sta.Netdelay.worst_window d (Sta.Design.net d "n") in
        check_bool "positive" true (lo > 0. && hi > lo));
    Alcotest.test_case "sink labels" `Quick (fun () ->
        check_string "label" "u1/a" (Sta.Netdelay.sink_label (pin "u1" "a")));
    Alcotest.test_case "flat figures equal Rctree.Analysis on tree_of_net bit for bit" `Quick
      (fun () ->
        (* seeded designs: every wire shape, some with a zero R or C,
           0 to 5 loads per net, so loadless nets of every shape too *)
        let bits x = Printf.sprintf "%h" x in
        let same what expected got = check_string what (bits expected) (bits got) in
        for seed = 1 to 12 do
          let st = Random.State.make [| seed; 0xf1a7 |] in
          let d = Sta.Design.create lib in
          let inst k = Printf.sprintf "g%d" k in
          for k = 0 to 59 do
            Sta.Design.add_instance d ~cell:(if k mod 3 = 0 then "nand2" else "inv4") (inst k)
          done;
          let free = Queue.create () in
          for k = 0 to 59 do
            Queue.add (pin (inst k) "a") free;
            if k mod 3 = 0 then Queue.add (pin (inst k) "b") free
          done;
          let value () =
            if Random.State.int st 6 = 0 then 0. else 10. +. Random.State.float st 2000.
          in
          for n = 0 to 39 do
            let resistance = value () and capacitance = 1e-16 *. value () in
            let wire =
              match n mod 5 with
              | 0 -> Sta.Design.Direct
              | 1 -> Sta.Design.Lumped capacitance
              | 2 -> Sta.Design.Line { resistance; capacitance }
              | 3 -> Sta.Design.Star { resistance; capacitance }
              | _ -> Sta.Design.Daisy { resistance; capacitance }
            in
            let loads =
              List.init (min (Queue.length free) (Random.State.int st 6)) (fun _ -> Queue.pop free)
            in
            let driver =
              if n < 20 then Sta.Design.Cell_output (pin (inst (n * 3)) "y")
              else Sta.Design.Primary (Tech.Mosfet.driver ~on_resistance:(1. +. value ())
                                         ~output_capacitance:(1e-16 *. value ()) ())
            in
            Sta.Design.add_net d ~wire ~driver ~loads (Printf.sprintf "n%d" n)
          done;
          let table = Sta.Netdelay.all_figures ~threshold:0.4 d in
          List.iteri
            (fun i (net : Sta.Design.net) ->
              let what f = Printf.sprintf "seed %d net %s %s" seed net.net_name f in
              let tree = Sta.Netdelay.tree_of_net d net in
              let h = Rctree.Analysis.make tree in
              let window id = Rctree.Analysis.delay_bounds h ~output:(`Id id) ~threshold:0.4 in
              let f = Sta.Netdelay.figures ~threshold:0.4 d net in
              let c_out =
                match net.driver with
                | Sta.Design.Primary drv -> drv.Tech.Mosfet.output_capacitance
                | Sta.Design.Cell_output p ->
                    (Sta.Design.cell_of d p.instance).Sta.Celllib.drive.Tech.Mosfet.output_capacitance
              in
              let load = Rctree.Tree.total_capacitance tree -. c_out in
              same (what "load") load f.load;
              same (what "table load") load table.loads.(i);
              List.iteri
                (fun k (label, id) ->
                  if net.loads = [] then begin
                    let lo, hi = window id and e = Rctree.Moments.elmore tree ~output:id in
                    same (what "far t_min") lo (fst f.far_end);
                    same (what "far t_max") hi (snd f.far_end);
                    same (what "far elmore") e (Lazy.force f.far_end_elmore);
                    same (what "table far t_min") lo table.far_min.(i);
                    same (what "table far t_max") hi table.far_max.(i);
                    same (what "table far elmore") e table.far_elmore.(i)
                  end
                  else begin
                    let s = f.sinks.(k) and l = Sta.Design.first_load d i + k in
                    check_string (what "label") label (Sta.Netdelay.sink_label s.sink);
                    let e = Rctree.Analysis.elmore h ~output:(`Id id) and lo, hi = window id in
                    same (what (label ^ " elmore")) e s.elmore;
                    same (what (label ^ " t_min")) lo (fst s.window);
                    same (what (label ^ " t_max")) hi (snd s.window);
                    same (what (label ^ " table elmore")) e table.elmore.(l);
                    same (what (label ^ " table t_min")) lo table.t_min.(l);
                    same (what (label ^ " table t_max")) hi table.t_max.(l)
                  end)
                (Rctree.Tree.outputs tree))
            (Sta.Design.nets d)
        done);
    Alcotest.test_case "a non-finite wire is refused on a loadless net too" `Quick (fun () ->
        (* the net as given is laid out, with the value checks of
           Element, whether or not it has loads *)
        let d = Sta.Design.create lib in
        Sta.Design.add_instance d ~cell:"inv1" "u1";
        Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "u1" "a" ] "in";
        Sta.Design.add_net d ~wire:(Sta.Design.Lumped infinity)
          ~driver:(Sta.Design.Cell_output (pin "u1" "y")) ~loads:[] "out";
        Sta.Design.mark_primary_output d "out";
        let message f = match f () with _ -> "no error" | exception Invalid_argument m -> m in
        let expected = "net \"out\": Element.capacitor: value must be finite and non-negative" in
        let out = Sta.Design.net d "out" in
        check_string "figures" expected (message (fun () -> Sta.Netdelay.figures d out));
        check_string "sink_delays" expected (message (fun () -> Sta.Netdelay.sink_delays d out));
        check_string "all_sink_delays" expected
          (message (fun () -> Sta.Netdelay.all_sink_delays d));
        check_string "Analysis.run" expected (message (fun () -> Sta.Analysis.run d));
        let wire = Sta.Design.Line { resistance = nan; capacitance = 1e-15 } in
        check_string "a record not in the design"
          "net \"out\": Element.line: value must be finite and non-negative"
          (message (fun () -> Sta.Netdelay.figures d { out with Sta.Design.wire })));
  ]

(* --- a naive oracle for the propagation ------------------------------ *)

(* a 32-bit adder re-wired net by net with seeded wires of every shape,
   a buffer broadcasting to 72 inverters whose outputs are loadless
   endpoints, and a nand2 with one input left open *)
let oracle_design () =
  let st = Random.State.make [| 20260 |] in
  let open Sta.Design in
  let base = Sta.Generate.ripple_carry_adder ~bits:32 () in
  let d = create lib in
  List.iter
    (fun (inst, cell) -> add_instance d ~cell:cell.Sta.Celllib.cell_name inst)
    (instances base);
  let wire () =
    let resistance = 50. +. Random.State.float st 450. in
    let capacitance = 1e-14 +. Random.State.float st 9e-14 in
    match Random.State.int st 5 with
    | 0 -> Line { resistance; capacitance }
    | 1 -> Daisy { resistance; capacitance }
    | 2 -> Star { resistance; capacitance }
    | 3 -> Lumped capacitance
    | _ -> Direct
  in
  List.iter
    (fun (net : net) -> add_net d ~wire:(wire ()) ~driver:net.driver ~loads:net.loads net.net_name)
    (nets base);
  List.iter (mark_primary_output d) (primary_outputs base);
  add_instance d ~cell:"buf4" "bc_buf";
  add_instance d ~cell:"nand2" "lonely";
  add_net d ~wire:(wire ()) ~driver:(Primary Tech.Mosfet.paper_superbuffer)
    ~loads:[ pin "bc_buf" "a"; pin "lonely" "a" ] "bc_in";
  let loads =
    List.init 72 (fun j ->
        let inv = Printf.sprintf "bc_l%d" j in
        add_instance d ~cell:"inv1" inv;
        pin inv "a")
  in
  add_net d ~wire:(wire ()) ~driver:(Cell_output (pin "bc_buf" "y")) ~loads "bc";
  List.iter
    (fun (p : pin) ->
      let net = p.instance ^ "_y" in
      add_net d ~wire:(wire ()) ~driver:(Cell_output (pin p.instance "y")) ~loads:[] net;
      mark_primary_output d net)
    (pin "lonely" "a" :: loads);
  d

let same_bits msg (a : Sta.Analysis.window) (b : Sta.Analysis.window) =
  let bits (w : Sta.Analysis.window) =
    Printf.sprintf "%h/%h" w.Sta.Analysis.early w.Sta.Analysis.late
  in
  check_string msg (bits a) (bits b)

(* the propagation written out recursively over names, from the
   per-net views of Netdelay and the cell's intrinsic + k * C_load *)
let check_against_oracle d ~input_arrivals m =
  let open Sta.Analysis in
  let r = run_exn ~mode:m ~input_arrivals d in
  let zero = { early = 0.; late = 0. } in
  let add a b = { early = a.early +. b.early; late = a.late +. b.late } in
  let memo tbl f key =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = f key in
        Hashtbl.replace tbl key v;
        v
  in
  let feeding = Hashtbl.create 16 in
  List.iter
    (fun (net : Sta.Design.net) ->
      List.iter
        (fun (p : Sta.Design.pin) -> Hashtbl.replace feeding (p.instance, p.pin) net.net_name)
        net.loads)
    (Sta.Design.nets d);
  let sink_window net_name (p : Sta.Design.pin) =
    let net = Sta.Design.net d net_name in
    let s =
      List.find
        (fun (s : Sta.Netdelay.sink_delay) -> s.sink = p)
        (Sta.Netdelay.sink_delays ~threshold:0.5 d net)
    in
    match m with
    | Bounds_mode -> { early = fst s.window; late = snd s.window }
    | Elmore_mode -> { early = s.elmore; late = s.elmore }
  in
  let far_end net_name =
    let net = Sta.Design.net d net_name in
    match m with
    | Bounds_mode ->
        let lo, hi = Sta.Netdelay.worst_window ~threshold:0.5 d net in
        { early = lo; late = hi }
    | Elmore_mode ->
        let tree = Sta.Netdelay.tree_of_net d net in
        let e = Rctree.Moments.elmore tree ~output:(snd (List.hd (Rctree.Tree.outputs tree))) in
        { early = e; late = e }
  in
  let launches = Hashtbl.create 16 and pins = Hashtbl.create 16 and outs = Hashtbl.create 16 in
  let rec launch net_name =
    memo launches
      (fun net_name ->
        match (Sta.Design.net d net_name).driver with
        | Sta.Design.Primary _ ->
            let at = Option.value (List.assoc_opt net_name input_arrivals) ~default:0. in
            { early = at; late = at }
        | Sta.Design.Cell_output { instance; _ } -> snd (output instance))
      net_name
  and pin_arr (p : Sta.Design.pin) =
    memo pins
      (fun (p : Sta.Design.pin) ->
        let net = Hashtbl.find feeding (p.instance, p.pin) in
        add (launch net) (sink_window net p))
      p
  (* (critical input, output window) *)
  and output instance =
    memo outs
      (fun instance ->
        let cell = Sta.Design.cell_of d instance in
        let ws =
          List.map
            (fun (p, _) ->
              ( p,
                if Hashtbl.mem feeding (instance, p) then pin_arr (pin instance p) else zero ))
            cell.Sta.Celllib.inputs
        in
        let crit, worst =
          List.fold_left
            (fun ((_, b) as best) ((_, w) as c) -> if w.late > b.late then c else best)
            (List.hd ws) (List.tl ws)
        in
        let earliest = List.fold_left (fun acc (_, w) -> Float.min acc w.early) worst.early ws in
        let load =
          match Sta.Design.net_driven_by d instance with
          | Some net -> Sta.Netdelay.load_capacitance d net
          | None -> 0.
        in
        let delay =
          cell.Sta.Celllib.intrinsic_delay +. (cell.Sta.Celllib.delay_per_farad *. load)
        in
        (crit, { early = earliest +. delay; late = worst.late +. delay }))
      instance
  in
  let endpoint net_name =
    match (Sta.Design.net d net_name).loads with
    | [] -> (add (launch net_name) (far_end net_name), None)
    | first :: rest ->
        List.fold_left
          (fun ((best, _) as acc) p ->
            let w = pin_arr p in
            if best.late >= w.late then acc else (w, Some p))
          (pin_arr first, Some first) rest
  in
  let rec path net_name sink steps =
    let arrival = match sink with Some p -> pin_arr p | None -> fst (endpoint net_name) in
    let steps = Through_net { net = net_name; launch = launch net_name; arrival } :: steps in
    match (Sta.Design.net d net_name).driver with
    | Sta.Design.Primary _ -> steps
    | Sta.Design.Cell_output { instance; _ } ->
        let input, out = output instance in
        let cell = (Sta.Design.cell_of d instance).Sta.Celllib.cell_name in
        let steps = Through_cell { instance; cell; input; output = out } :: steps in
        if Hashtbl.mem feeding (instance, input) then
          path (Hashtbl.find feeding (instance, input)) (Some (pin instance input)) steps
        else steps
  in
  let step_string = function
    | Through_net { net; launch; arrival } ->
        Printf.sprintf "net %s %h %h %h %h" net launch.early launch.late arrival.early arrival.late
    | Through_cell { instance; cell; input; output } ->
        Printf.sprintf "cell %s %s %s %h %h" instance cell input output.early output.late
  in
  List.iter
    (fun (net : Sta.Design.net) ->
      same_bits ("launch " ^ net.net_name) (launch net.net_name) (net_launch r net.net_name);
      List.iter
        (fun (p : Sta.Design.pin) ->
          same_bits ("pin " ^ Sta.Netdelay.sink_label p) (pin_arr p) (pin_arrival r p))
        net.loads)
    (Sta.Design.nets d);
  List.iter
    (fun (name, _) -> same_bits ("output " ^ name) (snd (output name)) (output_arrival r name))
    (Sta.Design.instances d);
  let pos = Sta.Design.primary_outputs d in
  List.iter
    (fun po ->
      same_bits ("endpoint " ^ po) (fst (endpoint po)) (endpoint_arrival r po);
      let sink = snd (endpoint po) in
      Alcotest.(check (list string))
        ("path " ^ po)
        (List.map step_string (path po sink []))
        (List.map step_string (critical_path r po)))
    pos;
  Alcotest.(check (list string)) "endpoint order" pos (List.map fst (endpoints r));
  let period = List.fold_left (fun acc po -> Float.max acc (fst (endpoint po)).late) 0. pos in
  check_string "required period" (Printf.sprintf "%h" period)
    (Printf.sprintf "%h" (required_period r))

let analysis_tests =
  [
    Alcotest.test_case "chain arrival arithmetic" `Quick (fun () ->
        (* each stage: single-pole net (RC ln2) + zero intrinsic.
           n0: R=1000,C=1p; n1: probe drive 1000 ohm into 1 pF *)
        let r = Sta.Analysis.run_exn (chain ()) in
        let w = Sta.Analysis.pin_arrival r (pin "u2" "a") in
        let stage = 1e-9 *. log 2. in
        check_close ~eps:1e-12 "early" (2. *. stage) w.Sta.Analysis.early;
        check_close ~eps:1e-12 "late" (2. *. stage) w.Sta.Analysis.late);
    Alcotest.test_case "endpoint beyond the last cell" `Quick (fun () ->
        let r = Sta.Analysis.run_exn (chain ()) in
        let w = Sta.Analysis.endpoint_arrival r "n2" in
        (* the loadless output net still has the driver pole through the
           cap floor: tiny but positive *)
        check_bool "after u2 output" true
          (w.Sta.Analysis.late >= (Sta.Analysis.output_arrival r "u2").Sta.Analysis.late));
    Alcotest.test_case "intrinsic delays accumulate" `Quick (fun () ->
        let cell =
          Sta.Celllib.make ~name:"slow" ~inputs:[ ("a", 1e-12) ] ~intrinsic_delay:5e-9
            ~drive:unit_drive ()
        in
        let d = Sta.Design.create (Sta.Celllib.library [ cell ]) in
        Sta.Design.add_instance d ~cell:"slow" "u1";
        Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "u1" "a" ] "n0";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "u1" "y")) ~loads:[] "n1";
        Sta.Design.mark_primary_output d "n1";
        let r = Sta.Analysis.run_exn d in
        let w = Sta.Analysis.output_arrival r "u1" in
        check_close ~eps:1e-12 "late" ((1e-9 *. log 2.) +. 5e-9) w.Sta.Analysis.late);
    Alcotest.test_case "elmore mode is a point inside nothing" `Quick (fun () ->
        let r = Sta.Analysis.run_exn ~mode:Sta.Analysis.Elmore_mode (chain ()) in
        let w = Sta.Analysis.pin_arrival r (pin "u1" "a") in
        check_close ~eps:1e-12 "point" w.Sta.Analysis.early w.Sta.Analysis.late;
        check_close ~eps:1e-12 "elmore" 1e-9 w.Sta.Analysis.late);
    Alcotest.test_case "bounds window contains the elmore-mode tmin side" `Quick (fun () ->
        let rb = Sta.Analysis.run_exn (chain ()) in
        let wb = Sta.Analysis.endpoint_arrival rb "n2" in
        check_bool "window" true (wb.Sta.Analysis.early <= wb.Sta.Analysis.late));
    Alcotest.test_case "worst endpoint" `Quick (fun () ->
        let r = Sta.Analysis.run_exn (chain ()) in
        match Sta.Analysis.worst_endpoint r with
        | Some (po, _) -> check_string "po" "n2" po
        | None -> Alcotest.fail "no endpoint");
    Alcotest.test_case "critical path walks back to the primary input" `Quick (fun () ->
        let r = Sta.Analysis.run_exn (chain ()) in
        let steps = Sta.Analysis.critical_path r "n2" in
        (* n0 -> u1 -> n1 -> u2 -> n2: 3 nets + 2 cells *)
        check_int "steps" 5 (List.length steps);
        match steps with
        | Sta.Analysis.Through_net { net; _ } :: _ -> check_string "starts at n0" "n0" net
        | _ -> Alcotest.fail "path must start at a net");
    Alcotest.test_case "slack" `Quick (fun () ->
        let r = Sta.Analysis.run_exn (chain ()) in
        match Sta.Analysis.slack r ~period:10e-9 with
        | [ ("n2", s) ] -> check_bool "positive" true (s > 0.)
        | _ -> Alcotest.fail "expected one endpoint");
    Alcotest.test_case "input arrivals shift the launch" `Quick (fun () ->
        let d = chain () in
        let r0 = Sta.Analysis.run_exn d in
        let r1 = Sta.Analysis.run_exn ~input_arrivals:[ ("n0", 2e-9) ] d in
        let w0 = Sta.Analysis.endpoint_arrival r0 "n2" in
        let w1 = Sta.Analysis.endpoint_arrival r1 "n2" in
        check_close ~eps:1e-15 "shifted late" (w0.Sta.Analysis.late +. 2e-9) w1.Sta.Analysis.late;
        check_close ~eps:1e-15 "shifted early" (w0.Sta.Analysis.early +. 2e-9) w1.Sta.Analysis.early);
    Alcotest.test_case "input arrivals validated" `Quick (fun () ->
        let d = chain () in
        check_invalid "unknown net" (fun () ->
            Sta.Analysis.run_exn ~input_arrivals:[ ("zz", 1e-9) ] d);
        check_invalid "non-primary" (fun () ->
            Sta.Analysis.run_exn ~input_arrivals:[ ("n1", 1e-9) ] d);
        check_invalid "negative" (fun () ->
            Sta.Analysis.run_exn ~input_arrivals:[ ("n0", -1e-9) ] d));
    Alcotest.test_case "load-dependent cell delay (k-factor)" `Quick (fun () ->
        (* one cell, per_farad = 1 ns/pF, driving a 2 pF lumped net:
           output = input arrival + intrinsic + 2 ns *)
        let cell =
          Sta.Celllib.make ~name:"kcell" ~inputs:[ ("a", 0.) ] ~intrinsic_delay:1e-9
            ~delay_per_farad:1e3 ~drive:unit_drive ()
        in
        let d = Sta.Design.create (Sta.Celllib.library [ cell ]) in
        Sta.Design.add_instance d ~cell:"kcell" "u1";
        Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "u1" "a" ] "n0";
        Sta.Design.add_net d ~wire:(Sta.Design.Lumped 2e-12)
          ~driver:(Sta.Design.Cell_output (pin "u1" "y")) ~loads:[] "n1";
        Sta.Design.mark_primary_output d "n1";
        let r = Sta.Analysis.run_exn d in
        let w = Sta.Analysis.output_arrival r "u1" in
        (* input net n0 is a 0-cap single pole: arrival 0 *)
        check_close ~eps:1e-15 "late" (1e-9 +. (1e3 *. 2e-12)) w.Sta.Analysis.late);
    Alcotest.test_case "k-factor cell slows under heavier load" `Quick (fun () ->
        let cell =
          Sta.Celllib.make ~name:"kcell" ~inputs:[ ("a", 0.) ] ~intrinsic_delay:1e-9
            ~delay_per_farad:1e3 ~drive:unit_drive ()
        in
        let build load =
          let d = Sta.Design.create (Sta.Celllib.library [ cell ]) in
          Sta.Design.add_instance d ~cell:"kcell" "u1";
          Sta.Design.add_net d ~driver:(Sta.Design.Primary unit_drive) ~loads:[ pin "u1" "a" ] "n0";
          Sta.Design.add_net d ~wire:(Sta.Design.Lumped load)
            ~driver:(Sta.Design.Cell_output (pin "u1" "y")) ~loads:[] "n1";
          Sta.Design.mark_primary_output d "n1";
          Sta.Analysis.required_period (Sta.Analysis.run_exn d)
        in
        check_bool "heavier is slower" true (build 4e-12 > build 1e-12));
    Alcotest.test_case "negative k-factor rejected" `Quick (fun () ->
        check_invalid "neg" (fun () ->
            Sta.Celllib.make ~name:"x" ~inputs:[ ("a", 0.) ] ~intrinsic_delay:0.
              ~delay_per_farad:(-1.) ~drive:unit_drive ()));
    Alcotest.test_case "net load capacitance" `Quick (fun () ->
        let d = chain () in
        (* n1: probe drive (no parasitics) into one 1 pF pin *)
        check_close ~eps:1e-18 "load" 1e-12
          (Sta.Netdelay.load_capacitance d (Sta.Design.net d "n1")));
    Alcotest.test_case "required_period is the worst late edge" `Quick (fun () ->
        let r = Sta.Analysis.run_exn (chain ()) in
        let w = Sta.Analysis.endpoint_arrival r "n2" in
        check_close ~eps:1e-18 "period" w.Sta.Analysis.late (Sta.Analysis.required_period r);
        (* certification closes exactly at that period *)
        match Sta.Analysis.slack r ~period:(Sta.Analysis.required_period r) with
        | [ (_, s) ] -> check_bool "zero slack" true (Float.abs s < 1e-18)
        | _ -> Alcotest.fail "one endpoint expected");
    Alcotest.test_case "hold slack uses the early edge" `Quick (fun () ->
        let r = Sta.Analysis.run_exn (chain ()) in
        let w = Sta.Analysis.endpoint_arrival r "n2" in
        (match Sta.Analysis.hold_slack r ~hold:1e-10 with
        | [ ("n2", s) ] -> check_close ~eps:1e-18 "slack" (w.Sta.Analysis.early -. 1e-10) s
        | _ -> Alcotest.fail "one endpoint expected");
        check_invalid "negative hold" (fun () -> Sta.Analysis.hold_slack r ~hold:(-1.)));
    Alcotest.test_case "hold section in the report" `Quick (fun () ->
        let r = Sta.Analysis.run_exn (chain ()) in
        let text = Sta.Report.timing_report ~hold:1e-10 r in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        check_bool "hold" true (contains text "hold check"));
    Alcotest.test_case "cycle reported as error" `Quick (fun () ->
        let d = Sta.Design.create probe_lib in
        Sta.Design.add_instance d ~cell:"probe" "a";
        Sta.Design.add_instance d ~cell:"probe" "b";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "a" "y")) ~loads:[ pin "b" "a" ]
          "nab";
        Sta.Design.add_net d ~driver:(Sta.Design.Cell_output (pin "b" "y")) ~loads:[ pin "a" "a" ]
          "nba";
        (match Sta.Analysis.run d with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "cycle not reported");
        check_invalid "exn" (fun () -> Sta.Analysis.run_exn d));
    Alcotest.test_case "report mentions mode and endpoint" `Quick (fun () ->
        let r = Sta.Analysis.run_exn (chain ()) in
        let text = Sta.Report.timing_report ~period:10e-9 r in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        check_bool "mode" true (contains text "Penfield-Rubinstein");
        check_bool "endpoint" true (contains text "n2");
        check_bool "verdict" true (contains text "PASS"));
    Alcotest.test_case "matches a naive string-keyed oracle bit for bit" `Quick (fun () ->
        let d = oracle_design () in
        let input_arrivals = [ ("a3", 2e-10); ("cin", 5e-11); ("bc_in", 1e-10) ] in
        List.iter (fun mode -> check_against_oracle d ~input_arrivals mode)
          [ Sta.Analysis.Bounds_mode; Sta.Analysis.Elmore_mode ]);
    Alcotest.test_case "queries on unknown names raise Not_found" `Quick (fun () ->
        let d = oracle_design () in
        let r = Sta.Analysis.run_exn d in
        let not_found what f =
          check_bool what true (match f () with _ -> false | exception Not_found -> true)
        in
        not_found "launch of unknown net" (fun () -> Sta.Analysis.net_launch r "zz");
        not_found "unknown instance" (fun () -> Sta.Analysis.output_arrival r "zz");
        not_found "unloaded pin" (fun () -> Sta.Analysis.pin_arrival r (pin "lonely" "b"));
        not_found "pin of unknown instance" (fun () -> Sta.Analysis.pin_arrival r (pin "zz" "a"));
        not_found "unknown pin name" (fun () -> Sta.Analysis.pin_arrival r (pin "lonely" "zz"));
        not_found "endpoint: unknown net" (fun () -> Sta.Analysis.endpoint_arrival r "zz");
        not_found "endpoint: not a primary output" (fun () ->
            Sta.Analysis.endpoint_arrival r "c5");
        not_found "path: not a primary output" (fun () -> Sta.Analysis.critical_path r "c5");
        not_found "path: unknown net" (fun () -> Sta.Analysis.critical_path r "zz"));
  ]

(* --- Netlist_io ----------------------------------------------------- *)

let netlist_text =
  "# a two-stage slice\n\
   design slice\n\
   cell buf4 u1\n\
   cell nand2 u2\n\
   input in1 drive=200:0.1p loads=u1/a\n\
   input in2 loads=u2/b\n\
   net n1 driver=u1/y wire=line:2k,0.2p loads=u2/a\n\
   net out driver=u2/y wire=lumped:0.05p loads=\n\
   output out\n"

let netlist_io_tests =
  let parse text =
    match Sta.Netlist_io.parse_string lib text with
    | Ok d -> d
    | Error e -> Alcotest.failf "parse: %s" (Sta.Netlist_io.error_to_string e)
  in
  let parse_err text =
    match Sta.Netlist_io.parse_string lib text with
    | Ok _ -> Alcotest.fail "expected a parse error"
    | Error e -> e
  in
  [
    Alcotest.test_case "parses a full design" `Quick (fun () ->
        let d = parse netlist_text in
        check_int "instances" 2 (List.length (Sta.Design.instances d));
        check_int "nets" 4 (List.length (Sta.Design.nets d));
        Alcotest.(check (list string)) "po" [ "out" ] (Sta.Design.primary_outputs d);
        Alcotest.(check (list string)) "clean" [] (Sta.Design.check d));
    Alcotest.test_case "wire shapes parsed" `Quick (fun () ->
        let d = parse netlist_text in
        (match (Sta.Design.net d "n1").Sta.Design.wire with
        | Sta.Design.Line { resistance; capacitance } ->
            check_close "r" 2000. resistance;
            check_close ~eps:1e-18 "c" 0.2e-12 capacitance
        | _ -> Alcotest.fail "expected a line");
        match (Sta.Design.net d "out").Sta.Design.wire with
        | Sta.Design.Lumped c -> check_close ~eps:1e-18 "c" 0.05e-12 c
        | _ -> Alcotest.fail "expected lumped");
    Alcotest.test_case "default input drive is the superbuffer" `Quick (fun () ->
        let d = parse netlist_text in
        match (Sta.Design.net d "in2").Sta.Design.driver with
        | Sta.Design.Primary drv -> check_close "r" 378. drv.Tech.Mosfet.on_resistance
        | Sta.Design.Cell_output _ -> Alcotest.fail "expected a primary input");
    Alcotest.test_case "analysis runs on a parsed design" `Quick (fun () ->
        let d = parse netlist_text in
        let r = Sta.Analysis.run_exn d in
        let w = Sta.Analysis.endpoint_arrival r "out" in
        check_bool "positive arrival" true (w.Sta.Analysis.late > 0.));
    Alcotest.test_case "round-trip preserves timing" `Quick (fun () ->
        let d = parse netlist_text in
        let d2 = parse (Sta.Netlist_io.to_string d) in
        let w = Sta.Analysis.endpoint_arrival (Sta.Analysis.run_exn d) "out" in
        let w2 = Sta.Analysis.endpoint_arrival (Sta.Analysis.run_exn d2) "out" in
        check_close ~eps:1e-18 "late" w.Sta.Analysis.late w2.Sta.Analysis.late;
        check_close ~eps:1e-18 "early" w.Sta.Analysis.early w2.Sta.Analysis.early);
    Alcotest.test_case "errors carry line numbers" `Quick (fun () ->
        let e = parse_err "cell buf4 u1\nnet bad loads=\n" in
        check_int "line" 2 e.Sta.Netlist_io.line);
    Alcotest.test_case "unknown cell reported" `Quick (fun () ->
        let e = parse_err "cell nosuch u1\n" in
        check_int "line" 1 e.Sta.Netlist_io.line);
    Alcotest.test_case "bad pin reported" `Quick (fun () ->
        ignore (parse_err "cell buf4 u1\ninput in loads=u1.a\n"));
    Alcotest.test_case "bad wire reported" `Quick (fun () ->
        ignore (parse_err "cell buf4 u1\ninput in wire=coax:50 loads=u1/a\n"));
    Alcotest.test_case "unknown declaration reported" `Quick (fun () ->
        ignore (parse_err "banana\n"));
    Alcotest.test_case "file round-trip" `Quick (fun () ->
        let d = parse netlist_text in
        let path = Filename.temp_file "sta" ".net" in
        Sta.Netlist_io.write_file path d;
        (match Sta.Netlist_io.parse_file lib path with
        | Ok d2 -> check_int "nets" 4 (List.length (Sta.Design.nets d2))
        | Error e -> Alcotest.failf "parse_file: %s" (Sta.Netlist_io.error_to_string e));
        Sys.remove path);
    Alcotest.test_case "malformed netlists keep their line and message" `Quick (fun () ->
        (* values, keys, wire shapes, pins, arities, comments, tabs,
           blank lines, CRLF (a trailing '\r' is part of a name) and the
           precedence drive -> loads -> wire (input), driver -> loads ->
           wire (net); a pair's C is read before its R *)
        let head = "cell buf4 u1\ncell nand2 u2\n" in
        List.iter
          (fun (text, expected) ->
            let got =
              match Sta.Netlist_io.parse_string lib text with
              | Ok _ -> "ok"
              | Error e -> Sta.Netlist_io.error_to_string e
            in
            check_string (Printf.sprintf "%S" text) expected got)
          [
            ( head ^ "input in drive=abc:0.1p loads=u1/a\n",
              "line 3: bad drive resistance value \"abc\"" );
            ( head ^ "net n driver=u1/y wire=lumped:1e999 loads=\n",
              "line 3: bad lumped capacitance value \"1e999\"" );
            ( head ^ "net n driver=u1/y wire=line:-5,1p loads=u2/a\n",
              "line 3: bad line resistance value \"-5\"" );
            ( head ^ "net n driver=u1/y wire=daisy:1k,nan loads=u2/a\n",
              "line 3: bad daisy capacitance value \"nan\"" );
            ( head ^ "input in drive=378 loads=u1/a\n",
              "line 3: bad drive spec \"378\" (expected R:C)" );
            ( head ^ "input in drive=1:2:3 loads=u1/a\n",
              "line 3: bad drive spec \"1:2:3\" (expected R:C)" );
            ( head ^ "input in drive=0:1p loads=u1/a\n",
              "line 3: Mosfet.driver: on_resistance must be positive" );
            (head ^ "input in drive=1k:1p\n", "line 3: input needs loads=...");
            (head ^ "net n wire=direct loads=u2/a\n", "line 3: net needs driver=instance/pin");
            ( head ^ "net n driver=u1/y wire=direct\n",
              "line 3: net needs loads=... (possibly empty)" );
            ( head ^ "input in loads=u1.a loads=u1/a\n",
              "line 3: bad pin \"u1.a\" (expected instance/pin)" );
            (head ^ "input in loads=u1/a loads=u1.a\n", "ok");
            (head ^ "input in loads=u1/a extra\n", "line 3: expected key=value, got \"extra\"");
            (head ^ "input in wire=coax:50 loads=u1/a\n", "line 3: unknown wire shape \"coax\"");
            (head ^ "input in wire=bogus loads=u1/a\n", "line 3: unknown wire shape \"bogus\"");
            (head ^ "input in wire=direct: loads=u1/a\n", "line 3: unknown wire shape \"direct\"");
            (head ^ "input in wire= loads=u1/a\n", "line 3: unknown wire shape \"\"");
            (head ^ "net n driver=u1/y wire=line:1k loads=u2/a\n", "line 3: wire line needs R,C");
            ( head ^ "net n driver=u1/y wire=star:1k,2p,3 loads=u2/a\n",
              "line 3: wire star needs R,C" );
            ( head ^ "net n driver=u1/y wire=lumped: loads=u2/a\n",
              "line 3: bad lumped capacitance value \"\"" );
            (head ^ "input in loads=u1.a\n", "line 3: bad pin \"u1.a\" (expected instance/pin)");
            (head ^ "input in loads=u1/a/b\n", "line 3: bad pin \"u1/a/b\" (expected instance/pin)");
            (head ^ "input in loads=u1/a,\n", "line 3: bad pin \"\" (expected instance/pin)");
            (head ^ "input in loads=/a\n", "line 3: bad pin \"/a\" (expected instance/pin)");
            (head ^ "net n driver=u1 loads=\n", "line 3: bad pin \"u1\" (expected instance/pin)");
            ("cell buf4\n", "line 1: unknown declaration \"cell\"");
            ("cell buf4 u1 extra\n", "line 1: unknown declaration \"cell\"");
            (head ^ "output\n", "line 3: unknown declaration \"output\"");
            ( head ^ "net out driver=u2/y loads=\noutput out out\n",
              "line 4: unknown declaration \"output\"" );
            ("wire x\n", "line 1: unknown declaration \"wire\"");
            ("input\n", "line 1: unknown declaration \"input\"");
            ( "# only a comment\ncell buf4 u1 # trailing\ninput in loads=u1/a#x\nnet o driver=u1/y loads=\noutput o#\n",
              "ok" );
            ("cell buf4 u#1\ninput in loads=u/a\n", "ok");
            ("cell\tbuf4\tu1\ninput\tin\t\tloads=u1/a\nnet o driver=u1/y loads=\noutput o\n", "ok");
            ("\n\n   \n\t\nbanana split\n", "line 5: unknown declaration \"banana\"");
            ( "cell buf4 u1\r\ninput in loads=u1/a\r\n",
              "line 2: Design.add_net: unknown instance \"u1\"" );
            ("cell buf4 u1 \r\n", "line 1: unknown declaration \"cell\"");
            ( "cell buf4 u1\nnet o driver=u1/y loads=\r\noutput o\r\n",
              "line 3: Design.mark_primary_output: unknown net \"o\\r\"" );
            ( head ^ "input in drive=bad wire=coax loads=u1.a\n",
              "line 3: bad drive spec \"bad\" (expected R:C)" );
            ( head ^ "input in wire=coax loads=u1.a\n",
              "line 3: bad pin \"u1.a\" (expected instance/pin)" );
            (head ^ "input in wire=coax\n", "line 3: input needs loads=...");
            (head ^ "net n wire=coax loads=u1.a\n", "line 3: net needs driver=instance/pin");
            ( head ^ "net n driver=u1.y wire=coax loads=\n",
              "line 3: bad pin \"u1.y\" (expected instance/pin)" );
            ( head ^ "net n driver=u1/y wire=coax loads=u1.a\n",
              "line 3: bad pin \"u1.a\" (expected instance/pin)" );
            ( head ^ "net n driver=u1/y wire=coax loads=u2/a\n",
              "line 3: unknown wire shape \"coax\"" );
            (head ^ "input in =x loads=u1/a\n", "ok");
            ( head ^ "input in loads=u1/a=b\n",
              "line 3: Design.add_net: \"u1\" has no input pin \"a=b\" (cell buf4)" );
            (head ^ "input in\n", "line 3: input needs loads=...");
            ( "cell buf4 u1\ncell buf4 u1\n",
              "line 2: Design.add_instance: duplicate instance \"u1\"" );
            ("cell nosuch u1\n", "line 1: Design.add_instance: unknown cell \"nosuch\"");
            ( head ^ "net n driver=u2/a loads=\n",
              "line 3: Design.add_net: \"u2\" output pin is \"y\", not \"a\"" );
            (head ^ "net n driver=u9/y loads=\n", "line 3: Design.add_net: unknown instance \"u9\"");
            ( head ^ "input in loads=u1/a\ninput in2 loads=u1/a\n",
              "line 4: Design.add_net: pin u1/a already loaded by net \"in\"" );
            ( head ^ "input in loads=u1/a\ninput in loads=u2/a\n",
              "line 4: Design.add_net: duplicate net \"in\"" );
            ( head ^ "output nowhere\n",
              "line 3: Design.mark_primary_output: unknown net \"nowhere\"" );
            (head ^ "input in\tloads=u1/a\tu2/a\n", "line 3: expected key=value, got \"u2/a\"");
            ( head ^ "input in loads=u1/a\x0c\n",
              "line 3: Design.add_net: \"u1\" has no input pin \"a\\012\" (cell buf4)" );
            ( head ^ "input in drive=1k:1p wire=lumped:2p loads=u1/a,u2/a\nnet o driver=u1/y wire=daisy:1k,1p loads=u2/b\noutput o",
              "ok" );
            (head ^ "design a b c\ndesign\n", "ok");
            ( head ^ "net n driver=u1/y wire=line:-5,nan loads=u2/a\n",
              "line 3: bad line capacitance value \"nan\"" );
            ( head ^ "input in drive=-1:-1 loads=u1/a\n",
              "line 3: bad drive capacitance value \"-1\"" );
            (head ^ "input in drive=x:0 loads=u1/a\n", "line 3: bad drive resistance value \"x\"");
            ( head ^ "net n driver=u1/y wire=star:x,y loads=u2/a\n",
              "line 3: bad star capacitance value \"y\"" );
            (head ^ "input in loads=u1.a,u2.b\n", "line 3: bad pin \"u1.a\" (expected instance/pin)");
            (head ^ "input in loads=u9/a,u1.b\n", "line 3: bad pin \"u1.b\" (expected instance/pin)");
          ]);
  ]

(* --- Generate --------------------------------------------------------- *)

let generate_tests =
  [
    Alcotest.test_case "adder instance and net counts" `Quick (fun () ->
        let d = Sta.Generate.ripple_carry_adder ~bits:4 () in
        check_int "gates" 36 (List.length (Sta.Design.instances d));
        (* per bit: 2 operand inputs + 1 carry + 7 internal + 1 sum = 11, plus cout *)
        check_int "nets" 45 (List.length (Sta.Design.nets d));
        check_int "outputs" 5 (List.length (Sta.Design.primary_outputs d)));
    Alcotest.test_case "design is clean" `Quick (fun () ->
        Alcotest.(check (list string)) "check" []
          (Sta.Design.check (Sta.Generate.ripple_carry_adder ~bits:3 ())));
    Alcotest.test_case "logic depth follows the carry chain" `Quick (fun () ->
        let d = Sta.Generate.ripple_carry_adder ~bits:6 () in
        let levels = Sta.Graph.levels (Sta.Graph.of_design d) in
        let max_level = List.fold_left (fun acc (_, l) -> Int.max acc l) 0 levels in
        (* levels count from 0; depth in gates is max_level + 1 *)
        check_int "depth" (Sta.Generate.carry_chain_depth ~bits:6) (max_level + 1));
    Alcotest.test_case "critical path ends at the last outputs" `Quick (fun () ->
        let d = Sta.Generate.ripple_carry_adder ~bits:4 () in
        let r = Sta.Analysis.run_exn d in
        match Sta.Analysis.worst_endpoint r with
        | Some (po, _) -> check_bool "late bit" true (po = "cout" || po = "s3")
        | None -> Alcotest.fail "no endpoint");
    Alcotest.test_case "required period grows with width" `Quick (fun () ->
        let period bits =
          Sta.Analysis.required_period
            (Sta.Analysis.run_exn (Sta.Generate.ripple_carry_adder ~bits ()))
        in
        let p2 = period 2 and p4 = period 4 and p8 = period 8 in
        check_bool "monotone" true (p2 < p4 && p4 < p8);
        (* roughly linear: doubling width should not quadruple delay *)
        check_bool "linear-ish" true (p8 /. p4 < 2.5));
    Alcotest.test_case "netlist_io round-trips a generated adder" `Quick (fun () ->
        let lib = Sta.Celllib.default Tech.Process.default_4um in
        let d = Sta.Generate.ripple_carry_adder ~bits:3 () in
        match Sta.Netlist_io.parse_string lib (Sta.Netlist_io.to_string d) with
        | Error e -> Alcotest.failf "reparse: %s" (Sta.Netlist_io.error_to_string e)
        | Ok d2 ->
            check_close ~eps:1e-18 "same period"
              (Sta.Analysis.required_period (Sta.Analysis.run_exn d))
              (Sta.Analysis.required_period (Sta.Analysis.run_exn d2)));
    Alcotest.test_case "bits validated" `Quick (fun () ->
        check_invalid "bits" (fun () -> Sta.Generate.ripple_carry_adder ~bits:0 ()));
    Alcotest.test_case "custom wire shape applies" `Quick (fun () ->
        let d =
          Sta.Generate.ripple_carry_adder
            ~wire:(Sta.Design.Line { resistance = 500.; capacitance = 5e-14 })
            ~bits:2 ()
        in
        let heavy = Sta.Analysis.required_period (Sta.Analysis.run_exn d) in
        let light =
          Sta.Analysis.required_period
            (Sta.Analysis.run_exn (Sta.Generate.ripple_carry_adder ~wire:Sta.Design.Direct ~bits:2 ()))
        in
        check_bool "wires slow it down" true (heavy > light));
  ]

let () =
  Alcotest.run "sta"
    [
      ("celllib", celllib_tests);
      ("design", design_tests);
      ("graph", graph_tests);
      ("netdelay", netdelay_tests);
      ("analysis", analysis_tests);
      ("netlist_io", netlist_io_tests);
      ("generate", generate_tests);
    ]
