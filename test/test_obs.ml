(* The observability layer: counter/histogram math, span nesting,
   exporter shape, the disabled-is-silent invariant, and the JSON
   round-trip.  Obs state is process-global, so every test starts from
   a clean slate and leaves metrics disabled. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* run [f] with metrics enabled, then restore the disabled default *)
let with_metrics f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Span.set_trace false;
      Obs.reset ())
    f

let counter_tests =
  [
    Alcotest.test_case "incr and add accumulate" `Quick (fun () ->
        with_metrics (fun () ->
            let c = Obs.Counter.make "test.counter" in
            check_int "fresh" 0 (Obs.Counter.value c);
            Obs.Counter.incr c;
            Obs.Counter.incr c;
            Obs.Counter.add c 40;
            check_int "accumulated" 42 (Obs.Counter.value c)));
    Alcotest.test_case "make is idempotent" `Quick (fun () ->
        with_metrics (fun () ->
            let a = Obs.Counter.make "test.same" in
            let b = Obs.Counter.make "test.same" in
            Obs.Counter.incr a;
            check_int "one underlying counter" 1 (Obs.Counter.value b)));
    Alcotest.test_case "reset zeroes but keeps registration" `Quick (fun () ->
        with_metrics (fun () ->
            let c = Obs.Counter.make "test.reset" in
            Obs.Counter.add c 7;
            Obs.reset ();
            check_int "zeroed" 0 (Obs.Counter.value c);
            check_bool "still listed" true
              (List.mem_assoc "test.reset" (Obs.counters ()))));
    Alcotest.test_case "gauge keeps the last value" `Quick (fun () ->
        with_metrics (fun () ->
            let g = Obs.Gauge.make "test.gauge" in
            Obs.Gauge.set g 1.5;
            Obs.Gauge.set g 2.5;
            check_float "last write wins" 2.5 (Obs.Gauge.value g)));
  ]

let histogram_tests =
  [
    Alcotest.test_case "count, sum, mean, min, max" `Quick (fun () ->
        with_metrics (fun () ->
            let h = Obs.Histogram.make "test.hist" in
            List.iter (Obs.Histogram.observe h) [ 1.; 2.; 3.; 10. ];
            check_int "count" 4 (Obs.Histogram.count h);
            check_float "sum" 16. (Obs.Histogram.sum h);
            check_float "mean" 4. (Obs.Histogram.mean h);
            check_float "min" 1. (Obs.Histogram.min_value h);
            check_float "max" 10. (Obs.Histogram.max_value h)));
    Alcotest.test_case "log2 bucket upper bounds" `Quick (fun () ->
        check_float "5 -> 8" 8. (Obs.Histogram.bucket_upper_bound ~value:5.);
        check_float "8 stays 8" 8. (Obs.Histogram.bucket_upper_bound ~value:8.);
        check_float "9 -> 16" 16. (Obs.Histogram.bucket_upper_bound ~value:9.);
        check_float "0.3 -> 0.5" 0.5 (Obs.Histogram.bucket_upper_bound ~value:0.3);
        check_float "non-positive -> underflow" 0. (Obs.Histogram.bucket_upper_bound ~value:0.));
    Alcotest.test_case "quantiles are bucket-resolution" `Quick (fun () ->
        with_metrics (fun () ->
            let h = Obs.Histogram.make "test.q" in
            for v = 1 to 100 do
              Obs.Histogram.observe h (float_of_int v)
            done;
            let p50 = Obs.Histogram.quantile h 0.5 in
            check_bool "p50 in [50/2, 50*2]" true (p50 >= 25. && p50 <= 100.);
            let p100 = Obs.Histogram.quantile h 1.0 in
            check_bool "p100 <= observed max" true (p100 <= 100.);
            check_bool "empty -> nan" true
              (Float.is_nan (Obs.Histogram.quantile (Obs.Histogram.make "test.q2") 0.5))));
  ]

let span_tests =
  [
    Alcotest.test_case "nesting depths recorded in trace" `Quick (fun () ->
        with_metrics (fun () ->
            Obs.Span.set_trace true;
            Obs.Span.with_ ~name:"outer" (fun () ->
                Obs.Span.with_ ~name:"inner" (fun () -> ()));
            let events = Obs.Span.events () in
            check_int "two events" 2 (List.length events);
            (* completion order: inner first *)
            let inner = List.nth events 0 and outer = List.nth events 1 in
            check_int "inner depth" 1 inner.Obs.Span.depth;
            check_int "outer depth" 0 outer.Obs.Span.depth;
            check_bool "inner within outer" true
              (inner.Obs.Span.duration <= outer.Obs.Span.duration);
            check_int "calls aggregated" 1 (Obs.Span.calls "outer")));
    Alcotest.test_case "span recorded when the body raises" `Quick (fun () ->
        with_metrics (fun () ->
            (try Obs.Span.with_ ~name:"raises" (fun () -> failwith "boom")
             with Failure _ -> ());
            check_int "recorded anyway" 1 (Obs.Span.calls "raises");
            (* depth unwound: a following span sits at depth 0 *)
            Obs.Span.set_trace true;
            Obs.Span.with_ ~name:"after" (fun () -> ());
            let ev = List.hd (Obs.Span.events ()) in
            check_int "depth unwound" 0 ev.Obs.Span.depth));
    Alcotest.test_case "with_ returns the body's value" `Quick (fun () ->
        with_metrics (fun () ->
            check_int "passthrough" 7 (Obs.Span.with_ ~name:"v" (fun () -> 7))));
  ]

let disabled_tests =
  [
    Alcotest.test_case "disabled means silent" `Quick (fun () ->
        Obs.reset ();
        Obs.set_enabled false;
        let c = Obs.Counter.make "test.silent" in
        let g = Obs.Gauge.make "test.silent_gauge" in
        let h = Obs.Histogram.make "test.silent_hist" in
        Obs.Counter.incr c;
        Obs.Counter.add c 10;
        Obs.Gauge.set g 3.;
        Obs.Histogram.observe h 5.;
        Obs.Span.with_ ~name:"test.silent_span" (fun () -> ());
        check_int "counter untouched" 0 (Obs.Counter.value c);
        check_float "gauge untouched" 0. (Obs.Gauge.value g);
        check_int "histogram untouched" 0 (Obs.Histogram.count h);
        check_int "span untouched" 0 (Obs.Span.calls "test.silent_span");
        check_bool "no trace events" true (Obs.Span.events () = []));
  ]

let exporter_tests =
  [
    Alcotest.test_case "report lists counters, histograms, spans" `Quick (fun () ->
        with_metrics (fun () ->
            Obs.Counter.add (Obs.Counter.make "test.report_counter") 3;
            Obs.Histogram.observe (Obs.Histogram.make "test.report_hist") 2.;
            Obs.Span.with_ ~name:"test.report_span" (fun () -> ());
            let r = Obs.report () in
            check_bool "header" true (contains r "== metrics ==");
            check_bool "counter row" true (contains r "test.report_counter");
            check_bool "histogram row" true (contains r "test.report_hist");
            check_bool "span row" true (contains r "test.report_span")));
    Alcotest.test_case "json lines round-trip" `Quick (fun () ->
        with_metrics (fun () ->
            Obs.Counter.add (Obs.Counter.make "test.json_counter") 42;
            let h = Obs.Histogram.make "test.json_hist" in
            List.iter (Obs.Histogram.observe h) [ 1.; 3.; 100. ];
            Obs.Span.with_ ~name:"test.json_span" (fun () -> ());
            let lines =
              Obs.to_json_lines () |> String.split_on_char '\n'
              |> List.filter (fun l -> l <> "")
            in
            check_bool "several lines" true (List.length lines > 3);
            let parsed =
              List.map
                (fun l ->
                  match Obs.Json.of_string l with
                  | Ok v -> v
                  | Error e -> Alcotest.failf "unparseable line %S: %s" l e)
                lines
            in
            let find_named ty name =
              List.find
                (fun j ->
                  Obs.Json.member "type" j = Some (Obs.Json.String ty)
                  && Obs.Json.member "name" j = Some (Obs.Json.String name))
                parsed
            in
            (match Obs.Json.member "value" (find_named "counter" "test.json_counter") with
            | Some (Obs.Json.Number v) -> check_float "counter value" 42. v
            | _ -> Alcotest.fail "counter line missing value");
            let hist = find_named "histogram" "test.json_hist" in
            (match (Obs.Json.member "count" hist, Obs.Json.member "buckets" hist) with
            | Some (Obs.Json.Number c), Some (Obs.Json.Array buckets) ->
                check_float "hist count" 3. c;
                let bucket_total =
                  List.fold_left
                    (fun acc b ->
                      match b with
                      | Obs.Json.Array [ _; Obs.Json.Number n ] -> acc +. n
                      | _ -> Alcotest.fail "bad bucket shape")
                    0. buckets
                in
                check_float "buckets cover all observations" 3. bucket_total
            | _ -> Alcotest.fail "histogram line missing count/buckets");
            match Obs.Json.member "count" (find_named "span" "test.json_span") with
            | Some (Obs.Json.Number n) -> check_float "span count" 1. n
            | _ -> Alcotest.fail "span line missing count"));
    Alcotest.test_case "json parser handles escapes and rejects garbage" `Quick (fun () ->
        let v =
          Obs.Json.Object
            [
              ("weird \"key\"", Obs.Json.String "line\nbreak\tand \\ slash");
              ("nested", Obs.Json.Array [ Obs.Json.Null; Obs.Json.Bool true; Obs.Json.Number (-2.5) ]);
            ]
        in
        (match Obs.Json.of_string (Obs.Json.to_string v) with
        | Ok v' -> check_bool "round-trips structurally" true (v = v')
        | Error e -> Alcotest.failf "round-trip failed: %s" e);
        check_bool "garbage rejected" true
          (match Obs.Json.of_string "{\"a\": 1," with Error _ -> true | Ok _ -> false);
        check_bool "trailing junk rejected" true
          (match Obs.Json.of_string "1 2" with Error _ -> true | Ok _ -> false));
  ]

let solver_stats_tests =
  [
    Alcotest.test_case "Not_converged carries the final stats" `Quick (fun () ->
        (* 2x2 SPD system that needs 2 CG iterations; capped at 1 *)
        let a = [| [| 4.; 1. |]; [| 1.; 3. |] |] in
        let mul v =
          Array.init 2 (fun i -> (a.(i).(0) *. v.(0)) +. (a.(i).(1) *. v.(1)))
        in
        match Check.Cg.solve ~max_iter:1 ~mul [| 1.; 2. |] with
        | _ -> Alcotest.fail "expected Not_converged"
        | exception Check.Cg.Not_converged stats ->
            check_int "stopped at the iteration cap" 1 stats.Check.Cg.iterations;
            check_bool "residual above the default tol" true
              (stats.Check.Cg.residual_norm > 1e-12));
    Alcotest.test_case "solver counters flow into the registry" `Quick (fun () ->
        with_metrics (fun () ->
            let a = [| [| 4.; 1. |]; [| 1.; 3. |] |] in
            let mul v =
              Array.init 2 (fun i -> (a.(i).(0) *. v.(0)) +. (a.(i).(1) *. v.(1)))
            in
            let _, stats = Check.Cg.solve ~mul [| 1.; 2. |] in
            let counter name =
              Option.value (List.assoc_opt name (Obs.counters ())) ~default:0
            in
            check_int "one solve" 1 (counter "cg.solves");
            check_int "iterations threaded through" stats.Check.Cg.iterations
              (counter "cg.iterations");
            (match Check.Cg.solve ~max_iter:1 ~mul [| 1.; 2. |] with
            | _ -> Alcotest.fail "expected Not_converged"
            | exception Check.Cg.Not_converged _ -> ());
            check_int "failure counted" 1 (counter "cg.not_converged")));
    Alcotest.test_case "eigen reports sweeps" `Quick (fun () ->
        with_metrics (fun () ->
            let m = Check.Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 2. |] |] in
            let d = Check.Eigen.symmetric m in
            check_bool "at least one sweep" true (d.Check.Eigen.sweeps >= 1);
            let counter name =
              Option.value (List.assoc_opt name (Obs.counters ())) ~default:0
            in
            check_int "decomposition counted" 1 (counter "eigen.decompositions")));
    Alcotest.test_case "string and file parses share one span" `Quick (fun () ->
        with_metrics (fun () ->
            let text = "VIN in 0\nR1 in a 15\nC1 a 0 2\n.end\n" in
            ignore (Spice.Parser.parse_string text);
            ignore (Spice.Parser.parse_string "VIN in 0\nR1 in a bogus\n");
            check_int "string parses" 2 (Obs.Span.calls "spice.parse");
            let path = Filename.temp_file "obs" ".sp" in
            Out_channel.with_open_bin path (fun oc -> output_string oc text);
            ignore (Spice.Parser.parse_file path);
            Sys.remove path;
            check_int "one more for the file" 3 (Obs.Span.calls "spice.parse");
            let counter name =
              Option.value (List.assoc_opt name (Obs.counters ())) ~default:0
            in
            check_int "decks parsed" 2 (counter "spice.decks_parsed");
            check_int "parse errors" 1 (counter "spice.parse_errors")));
    Alcotest.test_case "netlist string and file parses each open one sta.parse span" `Quick
      (fun () ->
        with_metrics (fun () ->
            let lib = Sta.Celllib.default Tech.Process.default_4um in
            let text = "cell inv1 u1\ninput a loads=u1/a\nnet y driver=u1/y loads=\noutput y\n" in
            check_bool "string parse" true (Result.is_ok (Sta.Netlist_io.parse_string lib text));
            check_int "one span" 1 (Obs.Span.calls "sta.parse");
            let path = Filename.temp_file "obs" ".net" in
            Out_channel.with_open_bin path (fun oc -> output_string oc text);
            let parsed = Sta.Netlist_io.parse_file lib path in
            Sys.remove path;
            check_bool "file parse" true (Result.is_ok parsed);
            check_int "one more for the file" 2 (Obs.Span.calls "sta.parse")));
    Alcotest.test_case "a tree indexes its children once, and only when asked" `Quick (fun () ->
        with_metrics (fun () ->
            let counter () =
              Option.value (List.assoc_opt "rctree.children_indexes" (Obs.counters ())) ~default:0
            in
            let tree = Circuit.Large.rc_chain ~sections:50 ~r:10. ~c:1e-13 in
            let (_ : (int * Circuit.Waveform.t) list) =
              Circuit.Large.step_response tree ~dt:1e-12 ~t_end:1e-11 ~outputs:[ 50 ]
            in
            check_int "stepping builds none" 0 (counter ());
            List.iter (fun id -> ignore (Rctree.Tree.children tree id : int list)) [ 0; 25; 50 ];
            check_int "three calls, one index" 1 (counter ())));
  ]

let () =
  Alcotest.run "obs"
    [
      ("counters", counter_tests);
      ("histograms", histogram_tests);
      ("spans", span_tests);
      ("disabled", disabled_tests);
      ("exporters", exporter_tests);
      ("solver stats", solver_stats_tests);
    ]
