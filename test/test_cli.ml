(* End-to-end tests of the rcdelay command-line interface, run
   in-process with stdout captured to a file. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* run the CLI with stdout (and stderr) redirected; return (code, output) *)
let run args =
  let argv = Array.of_list ("rcdelay" :: args) in
  let path = Filename.temp_file "cli" ".out" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  flush stderr;
  let saved_out = Unix.dup Unix.stdout and saved_err = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stdout;
  Unix.dup2 fd Unix.stderr;
  let restore () =
    flush stdout;
    flush stderr;
    Unix.dup2 saved_out Unix.stdout;
    Unix.dup2 saved_err Unix.stderr;
    Unix.close saved_out;
    Unix.close saved_err;
    Unix.close fd
  in
  let code = try Cli.run argv with e -> restore (); raise e in
  restore ();
  let ic = open_in path in
  let n = in_channel_length ic in
  let output = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  (code, output)

let with_fig7_deck f =
  let path = Filename.temp_file "fig7" ".sp" in
  let oc = open_out path in
  output_string oc
    "VIN in 0\nR1 in a 15\nC1 a 0 2\nR2 a b 8\nC2 b 0 7\nU1 a e 3 4\nC3 e 0 9\n.output e\n.end\n";
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [f] gets the path of a temporary deck holding [text] *)
let with_deck text f =
  let path = Filename.temp_file "bad" ".sp" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_netlist f =
  let path = Filename.temp_file "slice" ".net" in
  let oc = open_out path in
  output_string oc
    "cell buf4 u1\ncell inv1 u2\ninput in1 loads=u1/a\nnet n1 driver=u1/y wire=line:1k,0.1p \
     loads=u2/a\nnet out driver=u2/y loads=\noutput out\n";
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let tests =
  [
    Alcotest.test_case "fig10 prints the paper tables" `Quick (fun () ->
        let code, out = run [ "fig10" ] in
        check_int "exit" 0 code;
        check_bool "tmax row" true (contains out "68.167");
        check_bool "vmax row" true (contains out "0.18138"));
    Alcotest.test_case "times on a deck" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "times"; deck ] in
            check_int "exit" 0 code;
            check_bool "t_p" true (contains out "419");
            check_bool "t_d" true (contains out "363")));
    Alcotest.test_case "bounds with thresholds" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "bounds"; deck; "-v"; "0.5" ] in
            check_int "exit" 0 code;
            check_bool "tmin" true (contains out "184.2");
            check_bool "tmax" true (contains out "314.1")));
    Alcotest.test_case "voltage at times" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "voltage"; deck; "-t"; "100" ] in
            check_int "exit" 0 code;
            check_bool "vmin" true (contains out "0.16644")));
    Alcotest.test_case "certify exit codes" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let pass, out_pass = run [ "certify"; deck; "-v"; "0.5"; "--deadline"; "320" ] in
            check_int "pass" 0 pass;
            check_bool "verdict" true (contains out_pass "pass");
            let fail, out_fail = run [ "certify"; deck; "-v"; "0.5"; "--deadline"; "100" ] in
            check_int "fail" 1 fail;
            check_bool "verdict" true (contains out_fail "fail")));
    Alcotest.test_case "simulate emits csv" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "simulate"; deck; "--t-end"; "600"; "--samples"; "4" ] in
            check_int "exit" 0 code;
            check_bool "header" true (contains out "t,e");
            check_int "rows" 5 (List.length (String.split_on_char '\n' (String.trim out)))));
    Alcotest.test_case "pla sweep" `Quick (fun () ->
        let code, out = run [ "pla"; "--minterms"; "2,100" ] in
        check_int "exit" 0 code;
        check_bool "100 row" true (contains out "100"));
    Alcotest.test_case "ramp widens the window" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "ramp"; deck; "--rise"; "200"; "-v"; "0.5" ] in
            check_int "exit" 0 code;
            check_bool "both windows" true (contains out "step window" && contains out "289.2")));
    Alcotest.test_case "moments and model" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "moments"; deck ] in
            check_int "exit" 0 code;
            check_bool "m1" true (contains out "363");
            check_bool "model" true (contains out "pole")));
    Alcotest.test_case "ac bandwidth" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "ac"; deck; "--points"; "3" ] in
            check_int "exit" 0 code;
            check_bool "f3db" true (contains out "f_3dB")));
    Alcotest.test_case "sta on a netlist file" `Quick (fun () ->
        with_netlist (fun net ->
            let code, out = run [ "sta"; net; "--period"; "10e-9" ] in
            check_int "exit" 0 code;
            check_bool "report" true (contains out "Penfield-Rubinstein");
            check_bool "pass" true (contains out "PASS")));
    Alcotest.test_case "sta elmore mode" `Quick (fun () ->
        with_netlist (fun net ->
            let code, out = run [ "sta"; net; "--elmore" ] in
            check_int "exit" 0 code;
            check_bool "mode" true (contains out "Elmore")));
    Alcotest.test_case "adder demo" `Quick (fun () ->
        let code, out = run [ "adder"; "--bits"; "4"; "--period"; "30e-9" ] in
        check_int "exit" 0 code;
        check_bool "gates" true (contains out "36 nand2");
        check_bool "period" true (contains out "minimum certified period"));
    Alcotest.test_case "sta hold check" `Quick (fun () ->
        with_netlist (fun net ->
            let code, out = run [ "sta"; net; "--hold"; "1e-12" ] in
            check_int "exit" 0 code;
            check_bool "hold" true (contains out "hold check")));
    Alcotest.test_case "bad deck reports and exits 2" `Quick (fun () ->
        let path = Filename.temp_file "bad" ".sp" in
        let oc = open_out path in
        output_string oc "R1 in a 1\nC1 a 0 1\n";
        close_out oc;
        let code, out = run [ "times"; path ] in
        Sys.remove path;
        check_int "exit" 2 code;
        check_bool "message" true (contains out "source"));
    Alcotest.test_case "unparsable deck exits 2 with position" `Quick (fun () ->
        let path = Filename.temp_file "bad" ".sp" in
        let oc = open_out path in
        output_string oc "* title\nVIN in 0\nR1 in a bogus\n.output a\n.end\n";
        close_out oc;
        let code, out = run [ "bounds"; path ] in
        Sys.remove path;
        check_int "exit" 2 code;
        check_bool "line" true (contains out "line 3");
        check_bool "column" true (contains out "column"));
    Alcotest.test_case "jobs flag accepted, output unchanged" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code1, out1 = run [ "times"; deck; "--jobs"; "1" ] in
            let code2, out2 = run [ "times"; deck; "--jobs"; "2" ] in
            check_int "exit -j1" 0 code1;
            check_int "exit -j2" 0 code2;
            check_bool "same output" true (out1 = out2)));
    Alcotest.test_case "jobs flag validated" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out = run [ "times"; deck; "--jobs"; "0" ] in
            check_int "exit" 2 code;
            check_bool "message" true (contains out "--jobs")));
    Alcotest.test_case "unknown subcommand fails" `Quick (fun () ->
        let code, _ = run [ "frobnicate" ] in
        check_bool "nonzero" true (code <> 0));
    Alcotest.test_case "transient: all three solvers emit the same CSV" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let base = [ "transient"; deck; "--t-end"; "200"; "--samples"; "9" ] in
            let code_d, out_d = run base in
            let code_c, out_c = run (base @ [ "--solver"; "cg" ]) in
            let code_l, out_l = run (base @ [ "--solver"; "dense" ]) in
            check_int "direct exit" 0 code_d;
            check_int "cg exit" 0 code_c;
            check_int "dense exit" 0 code_l;
            check_bool "header" true (contains out_d "t,e");
            (* %.6g formatting absorbs solver roundoff: byte-identical *)
            check_bool "direct = cg" true (out_d = out_c);
            check_bool "direct = dense" true (out_d = out_l)));
    Alcotest.test_case "transient: backward Euler accepted" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code, out =
              run [ "transient"; deck; "--t-end"; "200"; "--integration"; "be"; "--samples"; "3" ]
            in
            check_int "exit" 0 code;
            check_bool "rows" true (contains out "t,e")));
    Alcotest.test_case "transient: bad solver or integration exits 2" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code_s, out_s = run [ "transient"; deck; "--t-end"; "200"; "--solver"; "qr" ] in
            check_int "solver exit" 2 code_s;
            check_bool "solver message" true (contains out_s "unknown solver");
            let code_i, _ = run [ "transient"; deck; "--t-end"; "200"; "--integration"; "rk4" ] in
            check_int "integration exit" 2 code_i;
            let code_t, _ = run [ "transient"; deck; "--t-end=-1" ] in
            check_int "t-end exit" 2 code_t));
    Alcotest.test_case "selfcheck: clean run exits 0" `Quick (fun () ->
        let code, out = run [ "selfcheck"; "--cases"; "15"; "--seed"; "42" ] in
        check_int "exit" 0 code;
        check_bool "summary" true (contains out "selfcheck: 15 cases, 0 failures (seed 42"));
    Alcotest.test_case "selfcheck: seed reproduces the reported case count" `Quick (fun () ->
        let _, out1 = run [ "selfcheck"; "--cases"; "25"; "--seed"; "7" ] in
        let _, out2 = run [ "selfcheck"; "--cases"; "25"; "--seed"; "7" ] in
        let summary = "selfcheck: 25 cases, 0 failures (seed 7" in
        check_bool "first" true (contains out1 summary);
        check_bool "second" true (contains out2 summary));
    Alcotest.test_case "selfcheck: property filter narrows the table" `Quick (fun () ->
        let code, out = run [ "selfcheck"; "--cases"; "10"; "--props"; "envelope,crossing" ] in
        check_int "exit" 0 code;
        check_bool "selected" true (contains out "envelope");
        check_bool "not selected" false (contains out "moments-agree"));
    Alcotest.test_case "selfcheck: injected fault exits 1 and persists a deck" `Quick (fun () ->
        let dir = Filename.temp_dir "rcdelay-cli-corpus" "" in
        let code, out =
          run
            [
              "selfcheck"; "--cases"; "40"; "--seed"; "11"; "--inject"; "drop-vmax-exp";
              "--corpus"; dir;
            ]
        in
        check_int "exit" 1 code;
        check_bool "counterexample reported" true (contains out "counterexample");
        check_bool "persisted path printed" true (contains out "persisted:");
        let decks =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".sp")
        in
        check_bool "deck on disk" true (decks <> []));
    Alcotest.test_case "selfcheck: bad arguments exit 2" `Quick (fun () ->
        List.iter
          (fun args ->
            let code, _ = run ("selfcheck" :: args) in
            check_int (String.concat " " args) 2 code)
          [
            [ "--budget=-3" ];
            [ "--cases"; "0" ];
            [ "--inject"; "bogus" ];
            [ "--props"; "envelope,bogus" ];
          ]);
    Alcotest.test_case "stats self-test exits 0" `Quick (fun () ->
        (* stats switches the process-global registry on; leave it as
           the other tests expect *)
        let code, out =
          Fun.protect
            ~finally:(fun () ->
              Obs.set_enabled false;
              Obs.reset ())
            (fun () -> run [ "stats" ])
        in
        check_int "exit" 0 code;
        check_bool "layers" true (contains out "self-test: all instrumented layers reported");
        check_bool "handle" true
          (contains out "self-test: handle agrees with per-output Moments.times to 1e-12"));
    Alcotest.test_case "transient: bad --t-end or --dt exits 2" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            let code_t, out_t = run [ "transient"; deck; "--t-end"; "0" ] in
            check_int "t-end exit" 2 code_t;
            check_bool "t-end message" true (contains out_t "--t-end must be positive");
            let code_d, out_d = run [ "transient"; deck; "--t-end"; "200"; "--dt"; "0" ] in
            check_int "dt exit" 2 code_d;
            check_bool "dt message" true (contains out_d "--dt must be positive")));
    Alcotest.test_case "transient: a step below an ulp of t-end exits 2 at once" `Quick
      (fun () ->
        with_fig7_deck (fun deck ->
            let t0 = Unix.gettimeofday () in
            let code, out = run [ "transient"; deck; "--t-end"; "1"; "--dt"; "1e-30" ] in
            let elapsed = Unix.gettimeofday () -. t0 in
            check_int "exit" 2 code;
            check_bool "names the limit" true (contains out "max_grid_values");
            check_bool (Printf.sprintf "fast (%.3f s)" elapsed) true (elapsed < 1.)));
    Alcotest.test_case "library Invalid_argument on deck values exits 2" `Quick (fun () ->
        with_deck "VIN in 0 1\nR1 in n1 -5\nC1 n1 0 1p\n.output n1\n.end\n" (fun path ->
            let code, out = run [ "times"; path ] in
            check_int "negative resistor exit" 2 code;
            check_bool "located" true (contains out (path ^ ": "));
            check_bool "message" true (contains out "non-negative"));
        let zero_ohm =
          "VIN in 0 1\nR1 in n1 0\nC1 n1 0 1p\nR2 n1 out 10\nC2 out 0 1p\n.output out\n.end\n"
        in
        with_deck zero_ohm (fun path ->
            let code, out = run [ "transient"; path; "--t-end"; "2" ] in
            check_int "zero resistor exit" 2 code;
            check_bool "located" true (contains out (path ^ ": "));
            check_bool "message" true (contains out "zero resistance")));
    Alcotest.test_case "bad deck value names the card, exits 2" `Quick (fun () ->
        List.iter
          (fun (card, deck) ->
            with_deck deck (fun path ->
                let code, out = run [ "times"; path ] in
                check_int (card ^ " exit") 2 code;
                check_bool (card ^ " located") true (contains out (path ^ ": "));
                check_bool (card ^ " named") true (contains out (Printf.sprintf "card %S" card));
                check_bool (card ^ " not from the builder") false (contains out "Element.")))
          [
            ("R1", "VIN in 0 1\nR1 in n1 -5\nC1 n1 0 1p\n.end\n");
            ("C7", "VIN in 0 1\nR1 in n1 5\nC7 n1 0 -1p\n.end\n");
            ("U2", "VIN in 0 1\nR1 in n1 5\nU2 n1 n2 1k -2p\nC1 n2 0 1p\n.end\n");
          ]);
    Alcotest.test_case "simulate and ramp: bad --t-end or --rise exits 2" `Quick (fun () ->
        with_fig7_deck (fun deck ->
            List.iter
              (fun (args, message) ->
                let code, out = run args in
                check_int (String.concat " " args ^ " exit") 2 code;
                check_bool (message ^ " reported") true (contains out message))
              [
                ([ "simulate"; deck; "--t-end=0" ], "--t-end must be positive");
                ([ "simulate"; deck; "--t-end=-1" ], "--t-end must be positive");
                ([ "ramp"; deck; "--rise"; "0" ], "--rise must be positive");
                ([ "ramp"; deck; "--rise=-1" ], "--rise must be positive");
              ]));
    Alcotest.test_case "transient: non-finite 1/R or C/dt exits 2, not NaN" `Quick (fun () ->
        List.iter
          (fun (what, deck) ->
            with_deck deck (fun path ->
                let code, out = run [ "transient"; path; "--t-end"; "5e-9" ] in
                check_int (what ^ " exit") 2 code;
                check_bool (what ^ " located") true (contains out (path ^ ": "));
                check_bool (what ^ " names the node") true (contains out "\"n1\"");
                check_bool (what ^ " prints no nan") false (contains out "nan")))
          [
            ("R1 = 5e-324", "Vin in 0 1\nR1 in n1 5e-324\nC1 n1 0 1p\n.end\n");
            ("C1 = 1e308", "Vin in 0 1\nR1 in n1 1k\nC1 n1 0 1e308\n.end\n");
          ]);
    Alcotest.test_case "sta: bad netlist values exit 2 with a location" `Quick (fun () ->
        let run_sta text expected =
          with_deck text (fun path ->
              let code, out = run [ "sta"; path ] in
              check_int (expected ^ " exit") 2 code;
              check_bool (expected ^ " located") true (contains out (path ^ ": " ^ expected)))
        in
        run_sta "cell inv1 u1\ninput a drive=0:1f loads=u1/a\nnet y driver=u1/y loads=\noutput y\n"
          "line 2: Mosfet.driver: on_resistance must be positive";
        run_sta
          "cell inv1 u1\ninput a drive=1e308:1e308 wire=line:1e308,1e308 loads=u1/a\n\
           net y driver=u1/y loads=\noutput y\n"
          "net \"a\": Times.make: values must be finite and non-negative");
    Alcotest.test_case "simulate: non-finite 1/R exits 2, not NaN" `Quick (fun () ->
        with_deck "V1 in 0 1\nR1 in out 5e-324\nC1 out 0 1p\n.output out\n.end\n" (fun path ->
            let code, out = run [ "simulate"; path; "--t-end"; "5e-9" ] in
            check_int "exit" 2 code;
            check_bool "located" true (contains out (path ^ ": Response.make: node \"out\" has"));
            check_bool "says why" true (contains out "a resistance too small for a finite 1/R");
            check_bool "prints no nan" false (contains out "nan")));
    Alcotest.test_case "command-line usage errors exit 2 with cmdliner's message" `Quick
      (fun () ->
        with_fig7_deck (fun deck ->
            List.iter
              (fun (args, expected) ->
                let what = String.concat " " args in
                let code, out = run args in
                check_int (what ^ " exit") 2 code;
                check_bool (what ^ " message") true (contains out expected))
              [
                ([ "times"; "--bogus"; deck ], "unknown option '--bogus'");
                ([ "simulate"; deck ], "required option --t-end is missing");
                ([ "times"; deck; "extra" ], "too many arguments");
                ([], "required COMMAND name is missing");
              ];
            check_int "--help" 0 (fst (run [ "times"; "--help=plain" ]))));
    Alcotest.test_case "simulate decomposes once for three outputs" `Quick (fun () ->
        with_deck
          "VIN in 0\nR1 in a 15\nC1 a 0 2\nR2 a b 8\nC2 b 0 7\nU1 a e 3 4\nC3 e 0 9\n.output e\n\
           .output b\n.output a\n.end\n"
          (fun deck ->
            Obs.reset ();
            Obs.set_enabled true;
            let code, out =
              Fun.protect
                ~finally:(fun () -> Obs.set_enabled false)
                (fun () -> run [ "simulate"; deck; "--t-end"; "600"; "--samples"; "4" ])
            in
            check_int "exit" 0 code;
            (* 16 passes (half the contour) per positive time, each
               serving all three outputs *)
            check_int "response.passes" (3 * 16)
              (Option.value (List.assoc_opt "response.passes" (Obs.counters ())) ~default:0);
            (* t = 0 is the discharged start, as `transient` pins it *)
            Alcotest.(check string)
              "csv" "t,e,b,a\n0,0,0,0\n200,0.427196,0.385584,0.478937\n\
                     400,0.668876,0.644108,0.698631\n600,0.808436,0.794098,0.825648\n"
              out));
    Alcotest.test_case "transient records the outputs and prints the full record's CSV" `Quick
      (fun () ->
        with_deck
          "VIN in 0\nR1 in a 15\nC1 a 0 2\nR2 a b 8\nC2 b 0 7\nU1 a e 3 4\nC3 e 0 9\n.output e\n\
           .output b\n.output a\n.end\n"
          (fun deck ->
            (* the CSV printed when every node was recorded, pinned *)
            let expected =
              "t,e,b,a\n0,0,0,0\n100,0.243554,0.197668,0.313866\n200,0.427196,0.385584,0.478937\n\
               300,0.564617,0.532177,0.603768\n400,0.668876,0.644108,0.698631\n\
               500,0.748146,0.729296,0.770775\n600,0.808436,0.794098,0.825648\n"
            in
            List.iter
              (fun solver ->
                let code, out =
                  run [ "transient"; deck; "--t-end"; "600"; "--samples"; "7"; "--solver"; solver ]
                in
                check_int (solver ^ " exit") 0 code;
                Alcotest.(check string) (solver ^ " csv") expected out)
              [ "direct"; "cg"; "dense" ]));
    Alcotest.test_case "dense paths exit 2 above the size limit, naming the count" `Quick
      (fun () ->
        (* nine lines of 64 sections each: 577 unknowns once lumped,
           above the dense oracle's limit; the tree pass has none *)
        let lines =
          List.init 9 (fun i -> Printf.sprintf "U%d n%d n%d 1 1\n" (i + 1) i (i + 1))
        in
        with_deck
          ("VIN in 0\nR0 in n0 1\nC0 n0 0 1\n" ^ String.concat "" lines ^ ".output n9\n.end\n")
          (fun deck ->
            List.iter
              (fun args ->
                let code, out = run (List.hd args :: deck :: List.tl args) in
                let what = String.concat " " args in
                check_int (what ^ " exit") 0 code;
                check_bool (what ^ " answers with numbers") true (contains out "0.");
                check_bool (what ^ " prints no nan") false (contains out "nan");
                check_bool (what ^ " prints no inf") false (contains out "inf"))
              [ [ "simulate"; "--t-end"; "10"; "--samples"; "5" ]; [ "ac" ] ];
            let t0 = Unix.gettimeofday () in
            let code, out =
              run [ "transient"; deck; "--solver"; "dense"; "--t-end"; "10" ]
            in
            check_int "dense transient exit" 2 code;
            check_bool "names the count" true
              (contains out "577 unknowns, above the dense solver's limit of 512");
            check_bool "points at transient" true
              (contains out "`rcdelay transient` with the default direct solver");
            check_bool "refuses at once" true (Unix.gettimeofday () -. t0 < 1.);
            let code, _ = run [ "transient"; deck; "--t-end"; "10"; "--samples"; "3" ] in
            check_int "direct transient answers" 0 code));
    Alcotest.test_case "sample and point counts below 2 exit 2 naming the flag" `Quick (fun () ->
        with_deck "VIN in 0 1\nR1 in n1 1k\nC1 n1 0 1p\n.output n1\n.end\n" (fun deck ->
            let transient = [ "transient"; deck; "--t-end"; "1e-9" ]
            and simulate = [ "simulate"; deck; "--t-end"; "1e-9" ]
            and ac = [ "ac"; deck ] in
            List.iter
              (fun (args, flag, n) ->
                let args = args @ [ Printf.sprintf "--%s=%d" flag n ] in
                let what = String.concat " " args in
                let code, out = run args in
                check_int (what ^ " exit") 2 code;
                check_bool (what ^ " names the flag") true
                  (contains out
                     (Printf.sprintf "option '--%s': expected a count of at least 2, got %d" flag
                        n));
                check_bool (what ^ " prints no nan") false (contains out "nan");
                check_bool (what ^ " prints no bandwidth") false (contains out "f_3dB"))
              [
                (transient, "samples", 1); (transient, "samples", 0); (transient, "samples", -3);
                (simulate, "samples", 1); (simulate, "samples", -3); (ac, "points", 1);
                (ac, "points", -2);
              ];
            check_int "two samples answer" 0 (fst (run (transient @ [ "--samples"; "2" ])));
            check_int "two points answer" 0 (fst (run (ac @ [ "--points"; "2" ])))));
    Alcotest.test_case "ac names an overflowing T_P" `Quick (fun () ->
        with_deck "VIN in 0 1\nR1 in n1 1k\nC1 n1 0 1e308\n.output n1\n.end\n" (fun deck ->
            let code, out = run [ "ac"; deck ] in
            check_int "exit" 2 code;
            Alcotest.(check string)
              "message" (deck ^ ": Ac.bandwidth_3db: T_P = inf is not finite\n") out));
    Alcotest.test_case "bad sta and adder flags exit 2 naming the flag" `Quick (fun () ->
        with_netlist (fun net ->
            List.iter
              (fun (args, expected) ->
                let what = String.concat " " args in
                let code, out = run args in
                check_int (what ^ " exit") 2 code;
                check_bool (what ^ " names the flag") true (contains out expected);
                check_bool (what ^ " prints no report") false (contains out "timing report"))
              [
                ([ "sta"; net; "--hold=-1e-12" ], "option '--hold': expected a finite time >= 0");
                ([ "sta"; net; "--hold=nan" ], "option '--hold': expected a finite time >= 0");
                ([ "sta"; net; "--period=nan" ], "option '--period': expected a finite time >= 0");
                ([ "sta"; net; "--period=inf" ], "option '--period': expected a finite time >= 0");
                ([ "sta"; net; "--period=-1" ], "option '--period': expected a finite time >= 0");
                ( [ "adder"; "--bits"; "0" ],
                  "option '--bits': expected a count of at least 1, got 0" );
                ([ "adder"; "--period=-1e-9" ], "option '--period': expected a finite time >= 0");
              ];
            check_int "zero hold answers" 0 (fst (run [ "sta"; net; "--hold=0" ]));
            check_int "one bit answers" 0 (fst (run [ "adder"; "--bits"; "1" ]))));
    Alcotest.test_case "moments: an overflowing moment exits 2 naming the output" `Quick (fun () ->
        List.iter
          (fun (r, c, order) ->
            with_deck (Printf.sprintf "VIN in 0 1\nR1 in out %s\nC1 out 0 %s\n.end\n" r c)
              (fun deck ->
                let what = Printf.sprintf "R1 = %s, C1 = %s" r c in
                let code, out = run [ "moments"; deck ] in
                check_int (what ^ " exit") 2 code;
                Alcotest.(check string)
                  (what ^ " message")
                  (Printf.sprintf
                     "%s: Higher_moments.output_moments: m%d of output \"out\" is not finite\n"
                     deck order)
                  out;
                check_bool (what ^ " prints no inf") false (contains out "inf")))
          [ ("1e308", "1", 2); ("1", "1e308", 2); ("1e200", "1e200", 1) ]);
  ]

let () = Alcotest.run "cli" [ ("rcdelay", tests) ]
