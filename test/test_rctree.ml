(* Unit tests for the rctree core library: units, elements, times, the
   two-port algebra, expressions, trees, paths, moments, conversion,
   lumping and validation. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let check_times msg (expected : Rctree.Times.t) (actual : Rctree.Times.t) =
  check_close ~eps:1e-9 (msg ^ ".t_p") expected.Rctree.Times.t_p actual.Rctree.Times.t_p;
  check_close ~eps:1e-9 (msg ^ ".t_d") expected.Rctree.Times.t_d actual.Rctree.Times.t_d;
  check_close ~eps:1e-9 (msg ^ ".t_r") expected.Rctree.Times.t_r actual.Rctree.Times.t_r

(* --- Units ---------------------------------------------------------- *)

let units_tests =
  let open Rctree.Units in
  let parse s = Option.get (parse_si s) in
  [
    Alcotest.test_case "format plain" `Quick (fun () -> check_string "s" "15" (format_si 15.));
    Alcotest.test_case "format kilo" `Quick (fun () -> check_string "s" "1.5k" (format_si 1500.));
    Alcotest.test_case "format pico" `Quick (fun () -> check_string "s" "10p" (format_si 1e-11));
    Alcotest.test_case "format zero" `Quick (fun () -> check_string "s" "0" (format_si 0.));
    Alcotest.test_case "format negative" `Quick (fun () ->
        check_string "s" "-2.2n" (format_si (-2.2e-9)));
    Alcotest.test_case "format quantity" `Quick (fun () ->
        check_string "s" "1.5ns" (format_quantity ~unit_symbol:"s" 1.5e-9));
    Alcotest.test_case "parse plain" `Quick (fun () -> check_float "v" 100. (parse "100"));
    Alcotest.test_case "parse kilo" `Quick (fun () -> check_float "v" 1500. (parse "1.5k"));
    Alcotest.test_case "parse milli vs meg" `Quick (fun () ->
        check_float "milli" 2e-3 (parse "2m");
        check_float "meg" 2e6 (parse "2meg");
        check_float "MEG case" 2e6 (parse "2MEG");
        check_float "SI mega" 2e6 (parse "2M"));
    Alcotest.test_case "parse pico with unit letters" `Quick (fun () ->
        check_close ~eps:1e-18 "v" 1e-11 (parse "10pF"));
    Alcotest.test_case "parse micro" `Quick (fun () -> check_close ~eps:1e-12 "v" 3e-6 (parse "3u"));
    Alcotest.test_case "parse exponent form" `Quick (fun () ->
        check_close ~eps:1e-12 "v" 2.5e-3 (parse "2.5e-3"));
    Alcotest.test_case "parse negative number" `Quick (fun () -> check_float "v" (-5.) (parse "-5"));
    Alcotest.test_case "parse garbage" `Quick (fun () ->
        check_bool "none" true (parse_si "xyz" = None);
        check_bool "none" true (parse_si "" = None));
    Alcotest.test_case "parse table is bit-exact" `Quick (fun () ->
        (* "1F" is femto, a suffix letter after "e" that does not start
           an exponent is a bare unit, and "1e400" parses to infinity:
           callers decide what to do with non-finite values *)
        List.iter
          (fun (s, expected) ->
            Alcotest.(check (option int64))
              (Printf.sprintf "%S" s)
              (Option.map Int64.bits_of_float expected)
              (Option.map Int64.bits_of_float (parse_si s)))
          [
            ("1k", Some 0x1.f4p+9); ("2.5meg", Some 0x1.312dp+21); ("1M", Some 0x1.e848p+19);
            ("1MEG", Some 0x1.e848p+19); ("1m", Some 0x1.0624dd2f1a9fcp-10);
            ("1mil", Some 0x1.0624dd2f1a9fcp-10); ("1F", Some 0x1.203af9ee75616p-50);
            ("10pF", Some 0x1.5fd7fe1796495p-37); ("9n", Some 0x1.353cd652bb168p-27);
            ("1x", Some 1.); ("1e", Some 1.); ("1e5e", Some 0x1.86ap+16); ("1_0", Some 1.);
            ("1.5e-3k", Some 1.5); ("0x10", Some 0.); ("+2", Some 2.); ("-5", Some (-5.));
            ("1e+", None); ("-", None); (".", None); ("1.2.3", None); ("nan", None);
            ("inf", None); ("", None); ("  ", None); ("1e400", Some infinity);
            ("5e-324", Some 0x0.0000000000001p-1022); (" 1k ", Some 0x1.f4p+9);
          ]);
    Alcotest.test_case "ohms per square" `Quick (fun () ->
        check_float "r" 180. (ohms_per_square ~sheet:30. ~squares:6.));
    Alcotest.test_case "ohms per square negative raises" `Quick (fun () ->
        check_invalid "neg" (fun () -> ohms_per_square ~sheet:(-1.) ~squares:6.));
  ]

(* --- Element -------------------------------------------------------- *)

let element_tests =
  let open Rctree.Element in
  [
    Alcotest.test_case "resistor accessors" `Quick (fun () ->
        let e = resistor 10. in
        check_float "r" 10. (resistance e);
        check_float "c" 0. (capacitance e));
    Alcotest.test_case "capacitor accessors" `Quick (fun () ->
        let e = capacitor 2. in
        check_float "r" 0. (resistance e);
        check_float "c" 2. (capacitance e));
    Alcotest.test_case "line accessors" `Quick (fun () ->
        let e = line ~resistance:3. ~capacitance:4. in
        check_float "r" 3. (resistance e);
        check_float "c" 4. (capacitance e);
        check_bool "distributed" true (is_distributed e));
    Alcotest.test_case "line reduces to resistor" `Quick (fun () ->
        check_bool "eq" true (equal (line ~resistance:5. ~capacitance:0.) (resistor 5.)));
    Alcotest.test_case "line reduces to capacitor" `Quick (fun () ->
        check_bool "eq" true (equal (line ~resistance:0. ~capacitance:5.) (capacitor 5.)));
    Alcotest.test_case "of_urc is line" `Quick (fun () ->
        check_bool "eq" true
          (equal (of_urc ~resistance:1. ~capacitance:2.) (line ~resistance:1. ~capacitance:2.)));
    Alcotest.test_case "lumped are not distributed" `Quick (fun () ->
        check_bool "r" false (is_distributed (resistor 1.));
        check_bool "c" false (is_distributed (capacitor 1.)));
    Alcotest.test_case "negative values raise" `Quick (fun () ->
        check_invalid "r" (fun () -> resistor (-1.));
        check_invalid "c" (fun () -> capacitor (-1.));
        check_invalid "line" (fun () -> line ~resistance:(-1.) ~capacitance:1.));
    Alcotest.test_case "nan raises" `Quick (fun () ->
        check_invalid "nan" (fun () -> resistor Float.nan));
    Alcotest.test_case "equality distinguishes kinds" `Quick (fun () ->
        check_bool "neq" false (equal (resistor 0.) (capacitor 0.)));
  ]

(* --- Times ----------------------------------------------------------- *)

let times_tests =
  let open Rctree.Times in
  [
    Alcotest.test_case "make stores values" `Quick (fun () ->
        let t = make ~t_p:3. ~t_d:2. ~t_r:1. in
        check_float "tp" 3. t.t_p;
        check_float "td" 2. t.t_d;
        check_float "tr" 1. t.t_r);
    Alcotest.test_case "ordering violation raises" `Quick (fun () ->
        check_invalid "order" (fun () -> make ~t_p:1. ~t_d:2. ~t_r:0.5);
        check_invalid "order" (fun () -> make ~t_p:3. ~t_d:1. ~t_r:2.));
    Alcotest.test_case "negative raises" `Quick (fun () ->
        check_invalid "neg" (fun () -> make ~t_p:1. ~t_d:(-1.) ~t_r:0.));
    Alcotest.test_case "rounding-level violation tolerated" `Quick (fun () ->
        let t = make ~t_p:1. ~t_d:(1. +. 1e-13) ~t_r:0.5 in
        check_bool "ok" true (check t));
    Alcotest.test_case "single line constants" `Quick (fun () ->
        (* the paper: T_P = T_De = RC/2 and T_Re = RC/3 for one line *)
        let t = single_line ~resistance:2. ~capacitance:3. in
        check_float "tp" 3. t.t_p;
        check_float "td" 3. t.t_d;
        check_float "tr" 2. t.t_r);
    Alcotest.test_case "degenerate detection" `Quick (fun () ->
        check_bool "deg" true (is_degenerate (make ~t_p:0. ~t_d:0. ~t_r:0.));
        check_bool "live" false (is_degenerate (make ~t_p:1. ~t_d:1. ~t_r:0.5)));
    Alcotest.test_case "equal with tolerance" `Quick (fun () ->
        let a = make ~t_p:1. ~t_d:0.5 ~t_r:0.25 in
        let b = make ~t_p:(1. +. 1e-12) ~t_d:0.5 ~t_r:0.25 in
        check_bool "eq" true (equal a b));
  ]

(* --- Twoport: the eqs. (19)-(28) algebra ------------------------------ *)

let twoport_tests =
  let open Rctree.Twoport in
  [
    Alcotest.test_case "urc constants" `Quick (fun () ->
        let u = urc ~resistance:6. ~capacitance:2. in
        check_float "ct" 2. u.c_total;
        check_float "tp" 6. u.t_p;
        check_float "r22" 6. u.r22;
        check_float "td2" 6. u.t_d2;
        check_float "tr2r22" 24. u.t_r2_r22;
        check_float "tr2" 4. (t_r2 u));
    Alcotest.test_case "lumped resistor" `Quick (fun () ->
        let u = urc ~resistance:5. ~capacitance:0. in
        check_float "ct" 0. u.c_total;
        check_float "r22" 5. u.r22;
        check_float "td2" 0. u.t_d2);
    Alcotest.test_case "lumped capacitor" `Quick (fun () ->
        let u = urc ~resistance:0. ~capacitance:5. in
        check_float "ct" 5. u.c_total;
        check_float "r22" 0. u.r22;
        check_float "tr2" 0. (t_r2 u));
    Alcotest.test_case "negative raises" `Quick (fun () ->
        check_invalid "urc" (fun () -> urc ~resistance:(-1.) ~capacitance:0.));
    Alcotest.test_case "empty is cascade identity" `Quick (fun () ->
        let u = urc ~resistance:3. ~capacitance:4. in
        check_bool "left" true (equal (cascade empty u) u);
        check_bool "right" true (equal (cascade u empty) u));
    Alcotest.test_case "branch zeroes port quantities" `Quick (fun () ->
        let u = branch (urc ~resistance:3. ~capacitance:4.) in
        check_float "ct" 4. u.c_total;
        check_float "tp" 6. u.t_p;
        check_float "r22" 0. u.r22;
        check_float "td2" 0. u.t_d2;
        check_float "tr2r22" 0. u.t_r2_r22);
    Alcotest.test_case "cascade R then C by hand" `Quick (fun () ->
        (* R=10 then C=2 at the far node: T_P = T_D2 = 20, T_R2 = 20 *)
        let u =
          cascade (urc ~resistance:10. ~capacitance:0.) (urc ~resistance:0. ~capacitance:2.)
        in
        check_float "ct" 2. u.c_total;
        check_float "tp" 20. u.t_p;
        check_float "r22" 10. u.r22;
        check_float "td2" 20. u.t_d2;
        check_float "tr2" 20. (t_r2 u));
    Alcotest.test_case "cascade eq.(23) cross term" `Quick (fun () ->
        (* R=10 then line (R=6, C=2):
           T_R2*R22 = 0 + 24 + 2*10*6 + 100*2 = 344 *)
        let u =
          cascade (urc ~resistance:10. ~capacitance:0.) (urc ~resistance:6. ~capacitance:2.)
        in
        check_float "tr2r22" 344. u.t_r2_r22;
        check_float "r22" 16. u.r22;
        check_float "td2" 26. u.t_d2);
    Alcotest.test_case "cascade is associative" `Quick (fun () ->
        let a = urc ~resistance:1. ~capacitance:2. in
        let b = urc ~resistance:3. ~capacitance:4. in
        let c = urc ~resistance:5. ~capacitance:6. in
        check_bool "assoc" true (equal (cascade (cascade a b) c) (cascade a (cascade b c))));
    Alcotest.test_case "times satisfies eq.(7)" `Quick (fun () ->
        let u =
          cascade
            (cascade (urc ~resistance:2. ~capacitance:1.)
               (branch (urc ~resistance:4. ~capacitance:3.)))
            (urc ~resistance:1. ~capacitance:5.)
        in
        check_bool "ordering" true (Rctree.Times.check (times u)));
    Alcotest.test_case "of_element matches urc" `Quick (fun () ->
        check_bool "line" true
          (equal
             (of_element (Rctree.Element.line ~resistance:6. ~capacitance:2.))
             (urc ~resistance:6. ~capacitance:2.)));
  ]

(* --- Expr -------------------------------------------------------------- *)

let expr_tests =
  let open Rctree.Expr in
  [
    Alcotest.test_case "fig7 five-tuple" `Quick (fun () ->
        let tp = eval fig7 in
        check_float "ct" 22. tp.Rctree.Twoport.c_total;
        check_float "tp" 419. tp.Rctree.Twoport.t_p;
        check_float "r22" 18. tp.Rctree.Twoport.r22;
        check_float "td2" 363. tp.Rctree.Twoport.t_d2;
        check_close "tr2" (6033. /. 18.) (Rctree.Twoport.t_r2 tp));
    Alcotest.test_case "size counts leaves" `Quick (fun () -> check_int "n" 6 (size fig7));
    Alcotest.test_case "pp uses paper notation" `Quick (fun () ->
        check_string "s" "(URC 15 0) WC (URC 0 2)" (to_string (urc 15. 0. @> urc 0. 2.)));
    Alcotest.test_case "wb printed" `Quick (fun () ->
        check_string "s" "(WB (URC 8 0) WC (URC 0 7))" (to_string (wb (urc 8. 0. @> urc 0. 7.))));
    Alcotest.test_case "cascade_all" `Quick (fun () ->
        let e = cascade_all [ urc 1. 0.; urc 0. 2.; urc 3. 4. ] in
        check_int "n" 3 (size e));
    Alcotest.test_case "cascade_all empty raises" `Quick (fun () ->
        check_invalid "empty" (fun () -> cascade_all []));
    Alcotest.test_case "negative urc raises" `Quick (fun () ->
        check_invalid "neg" (fun () -> urc (-1.) 0.));
    Alcotest.test_case "resistor capacitor shorthands" `Quick (fun () ->
        check_bool "r" true (resistor 5. = urc 5. 0.);
        check_bool "c" true (capacitor 5. = urc 0. 5.));
    Alcotest.test_case "pla_line size grows with minterms" `Quick (fun () ->
        check_int "n0" 2 (size (pla_line 0));
        check_int "n2" 4 (size (pla_line 2));
        check_int "n10" 12 (size (pla_line 10));
        check_int "n3" 6 (size (pla_line 3)));
    Alcotest.test_case "pla_line negative raises" `Quick (fun () ->
        check_invalid "neg" (fun () -> pla_line (-1)));
    Alcotest.test_case "times of a single line" `Quick (fun () ->
        let t = times (urc 2. 3.) in
        check_times "line" (Rctree.Times.single_line ~resistance:2. ~capacitance:3.) t);
  ]

(* --- Tree builder and queries ------------------------------------------ *)

(* the Fig. 7 network built by hand; returns (tree, node ids) *)
let build_fig7 () =
  let open Rctree.Tree.Builder in
  let b = create ~name:"fig7" () in
  let input = input b in
  let a = add_resistor b ~parent:input ~name:"a" 15. in
  add_capacitance b a 2.;
  let side = add_resistor b ~parent:a ~name:"b" 8. in
  add_capacitance b side 7.;
  let e = add_line b ~parent:a ~name:"e" 3. 4. in
  add_capacitance b e 9.;
  mark_output b ~label:"e" e;
  (finish b, a, side, e)

let tree_tests =
  let open Rctree.Tree in
  [
    Alcotest.test_case "structure of fig7" `Quick (fun () ->
        let t, a, side, e = build_fig7 () in
        check_int "nodes" 4 (node_count t);
        check_bool "parent a" true (parent t a = Some (input t));
        check_bool "parent b" true (parent t side = Some a);
        check_bool "parent input" true (parent t (input t) = None);
        Alcotest.(check (list int)) "children of a" [ side; e ] (children t a));
    Alcotest.test_case "elements" `Quick (fun () ->
        let t, a, _, e = build_fig7 () in
        check_bool "input none" true (element t (input t) = None);
        check_bool "a resistor" true (element t a = Some (Rctree.Element.resistor 15.));
        check_bool "e line" true
          (element t e = Some (Rctree.Element.line ~resistance:3. ~capacitance:4.)));
    Alcotest.test_case "capacitance accumulates" `Quick (fun () ->
        let b = Builder.create () in
        let n = Builder.add_resistor b ~parent:(Builder.input b) 1. in
        Builder.add_capacitance b n 2.;
        Builder.add_capacitance b n 3.;
        check_float "c" 5. (capacitance (Builder.finish b) n));
    Alcotest.test_case "negative capacitance raises" `Quick (fun () ->
        let b = Builder.create () in
        check_invalid "neg" (fun () -> Builder.add_capacitance b (Builder.input b) (-1.)));
    Alcotest.test_case "capacitor element edge rejected" `Quick (fun () ->
        let b = Builder.create () in
        check_invalid "cap edge" (fun () ->
            Builder.add_node b ~parent:(Builder.input b) (Rctree.Element.capacitor 1.)));
    Alcotest.test_case "bad parent raises" `Quick (fun () ->
        let b = Builder.create () in
        check_invalid "parent" (fun () -> Builder.add_resistor b ~parent:42 1.));
    Alcotest.test_case "pure-capacitor line folds into parent" `Quick (fun () ->
        let b = Builder.create () in
        let n = Builder.add_line b ~parent:(Builder.input b) 0. 5. in
        check_int "same node" (Builder.input b) n;
        check_float "c" 5. (capacitance (Builder.finish b) n));
    Alcotest.test_case "outputs and labels" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        check_bool "named" true (output_named t "e" = e);
        check_bool "is_output" true (is_output t e);
        check_bool "not output" false (is_output t (input t)));
    Alcotest.test_case "marking is idempotent per label, aliases allowed" `Quick (fun () ->
        let b = Builder.create () in
        let n = Builder.add_resistor b ~parent:(Builder.input b) 1. in
        Builder.mark_output b ~label:"first" n;
        Builder.mark_output b ~label:"first" n;
        Builder.mark_output b ~label:"second" n;
        let t = Builder.finish b in
        check_int "two labels" 2 (List.length (outputs t));
        check_bool "first" true (output_named t "first" = n);
        check_bool "second" true (output_named t "second" = n));
    Alcotest.test_case "find_node" `Quick (fun () ->
        let t, a, _, _ = build_fig7 () in
        check_bool "found" true (find_node t "a" = Some a);
        check_bool "missing" true (find_node t "zz" = None));
    Alcotest.test_case "depth" `Quick (fun () ->
        let t, a, side, _ = build_fig7 () in
        check_int "input" 0 (depth t (input t));
        check_int "a" 1 (depth t a);
        check_int "b" 2 (depth t side));
    Alcotest.test_case "totals include distributed parts" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        check_float "cap" 22. (total_capacitance t);
        check_float "res" 26. (total_resistance t));
    Alcotest.test_case "has_distributed_lines" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        check_bool "yes" true (has_distributed_lines t);
        let b = Builder.create () in
        let (_ : node_id) = Builder.add_resistor b ~parent:(Builder.input b) 1. in
        check_bool "no" false (has_distributed_lines (Builder.finish b)));
    Alcotest.test_case "fold visits parents before children" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        let seen = Hashtbl.create 8 in
        let ok =
          fold_nodes t ~init:true ~f:(fun acc id ->
              Hashtbl.replace seen id ();
              acc && match parent t id with None -> true | Some p -> Hashtbl.mem seen p)
        in
        check_bool "order" true ok);
    Alcotest.test_case "builder reusable after finish" `Quick (fun () ->
        let b = Builder.create () in
        let n1 = Builder.add_resistor b ~parent:(Builder.input b) 1. in
        let t1 = Builder.finish b in
        let (_ : node_id) = Builder.add_resistor b ~parent:n1 2. in
        let t2 = Builder.finish b in
        check_int "t1 frozen" 2 (node_count t1);
        check_int "t2 grew" 3 (node_count t2));
    Alcotest.test_case "default-named chain takes at most 4 words per node" `Quick (fun () ->
        let b = Builder.create () in
        let at = ref (Builder.input b) in
        for _ = 1 to 100_000 do
          let n = Builder.add_resistor b ~parent:!at 1. in
          Builder.add_capacitance b n 1.;
          at := n
        done;
        let t = Builder.finish b in
        let per_node =
          float_of_int (Obj.reachable_words (Obj.repr t)) /. float_of_int (node_count t)
        in
        check_bool (Printf.sprintf "%.2f words per node" per_node) true (per_node <= 4.);
        check_string "default name" "n70000" (node_name t 70_000));
    Alcotest.test_case "find_node: lowest id, no name made per node" `Quick (fun () ->
        let b = Builder.create () in
        let explicit = Builder.add_resistor b ~parent:(Builder.input b) ~name:"n5" 1. in
        let at = ref explicit in
        for _ = 1 to 6 do
          at := Builder.add_resistor b ~parent:!at 1.
        done;
        let late = Builder.add_resistor b ~parent:!at ~name:"n3" 1. in
        let t = Builder.finish b in
        check_string "default n5" "n5" (node_name t 5);
        check_bool "explicit n5 first" true (find_node t "n5" = Some explicit);
        check_bool "default n3 before explicit" true (find_node t "n3" = Some 3);
        check_string "late keeps its name" "n3" (node_name t late);
        check_bool "n6" true (find_node t "n6" = Some 6);
        check_bool "not canonical" true (find_node t "n06" = None);
        check_bool "input" true (find_node t "in" = Some (input t));
        let b = Builder.create () in
        let at = ref (Builder.input b) in
        for _ = 1 to 100_000 do
          at := Builder.add_resistor b ~parent:!at 1.
        done;
        let t = Builder.finish b in
        let w0 = Gc.minor_words () in
        let found = find_node t "n99999" and missing = find_node t "zz" in
        let words = Gc.minor_words () -. w0 in
        check_bool "deep" true (found = Some 99_999 && missing = None);
        check_bool (Printf.sprintf "%.0f minor words" words) true (words < 100.));
    Alcotest.test_case "children keep insertion order" `Quick (fun () ->
        let b = Builder.create () in
        let hub = Builder.add_resistor b ~parent:(Builder.input b) 1. in
        let x = Builder.add_resistor b ~parent:hub 1. in
        let side = Builder.add_resistor b ~parent:(Builder.input b) 1. in
        let z = Builder.add_line b ~parent:hub 1. 2. in
        let w = Builder.add_resistor b ~parent:side 1. in
        let v = Builder.add_resistor b ~parent:hub 1. in
        let t = Builder.finish b in
        Alcotest.(check (list int)) "hub" [ x; z; v ] (children t hub);
        Alcotest.(check (list int)) "input" [ hub; side ] (children t (input t));
        Alcotest.(check (list int)) "side" [ w ] (children t side);
        Alcotest.(check (list int)) "leaf" [] (children t v));
    Alcotest.test_case "adding after finish leaves the frozen tree alone" `Quick (fun () ->
        let open Builder in
        let b = create ~name:"grow" () in
        let a = add_resistor b ~parent:(input b) ~name:"a" 2. in
        add_capacitance b a 1.;
        mark_output b a;
        let t = finish b in
        let before = Format.asprintf "%a" pp t in
        add_capacitance b a 5.;
        let c = add_line b ~parent:a 3. 4. in
        mark_output b c;
        let (_ : node_id) = add_resistor b ~parent:(input b) 1. in
        check_string "pp" before (Format.asprintf "%a" pp t);
        check_int "nodes" 2 (node_count t);
        check_float "capacitance" 1. (capacitance t a);
        Alcotest.(check (list int)) "children" [] (children t a);
        check_int "outputs" 1 (List.length (outputs t));
        check_float "grown" 6. (capacitance (finish b) a));
    Alcotest.test_case "pp of fig7 is unchanged" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        check_string "dump"
          "tree fig7\n  in: input\n    a: R(15) C=2\n      b: R(8) C=7\n      e: URC(3,4) C=9 [output]\n"
          (Format.asprintf "%a" pp t));
    Alcotest.test_case "outputs keep first-marking order, once each" `Quick (fun () ->
        (* past sixteen outputs the duplicate check changes method; the
           answer must not *)
        List.iter
          (fun n ->
            let b = Builder.create () in
            let ids = Array.init n (fun _ -> Builder.add_resistor b ~parent:(Builder.input b) 1.) in
            let marked = ref [] in
            let mark ?label id ~fresh =
              Builder.mark_output b ?label id;
              if fresh then marked := (Option.value label ~default:"n1", id) :: !marked
            in
            Array.iteri
              (fun i id ->
                let label = Printf.sprintf "o%d" i in
                mark ~label id ~fresh:true;
                mark ~label:"shared" ids.(0) ~fresh:(i = 0);
                mark ~label id ~fresh:false)
              ids;
            (* a second label on a node, and a label reused on another node *)
            mark ~label:"o1" ids.(0) ~fresh:true;
            mark ~label:"o0" ids.(n - 1) ~fresh:(n > 1);
            mark ids.(0) ~fresh:true;
            mark ids.(0) ~fresh:false;
            Alcotest.(check (list (pair string int)))
              (Printf.sprintf "%d outputs" n) (List.rev !marked) (outputs (Builder.finish b)))
          [ 1; 3; 40 ]);
    Alcotest.test_case "pp is linear in depth; deep lines state their depth" `Quick (fun () ->
        let chain len =
          let b = Builder.create () in
          let at = ref (Builder.input b) in
          for _ = 1 to len do
            at := Builder.add_resistor b ~parent:!at 1.;
            Builder.add_capacitance b !at 1.
          done;
          Builder.mark_output b !at;
          Builder.finish b
        in
        let lines = String.split_on_char '\n' (Format.asprintf "%a" pp (chain 40)) in
        let indent = String.make 64 ' ' in
        check_string "depth 31" (indent ^ "n31: R(1) C=1") (List.nth lines 32);
        check_string "depth 32" (indent ^ "[depth 32] n32: R(1) C=1") (List.nth lines 33);
        check_string "depth 40" (indent ^ "[depth 40] n40: R(1) C=1 [output]") (List.nth lines 41);
        (* a million levels, printed to a formatter that only counts *)
        let deep = chain 1_000_000 in
        let bytes = ref 0 in
        let fmt =
          Format.make_formatter (fun _ _ len -> bytes := !bytes + len) (fun () -> ())
        in
        let t0 = Unix.gettimeofday () in
        Format.fprintf fmt "%a@." pp deep;
        let elapsed = Unix.gettimeofday () -. t0 in
        check_bool "every line, at most 64 spaces of indent" true
          (!bytes > 1_000_000 * 20 && !bytes < 1_000_000 * 110);
        check_bool (Printf.sprintf "under a second (%.2f s)" elapsed) true (elapsed < 1.));
  ]

(* --- Path: the Fig. 3 resistance definitions ---------------------------- *)

(* Fig. 3 analogue: input -1- n1 -2- m; m -4- k; m -16- e.
   R_ke = 3, R_kk = 7, R_ee = 19. *)
let build_fig3 () =
  let open Rctree.Tree.Builder in
  let b = create ~name:"fig3" () in
  let n1 = add_resistor b ~parent:(input b) ~name:"n1" 1. in
  let m = add_resistor b ~parent:n1 ~name:"m" 2. in
  let k = add_resistor b ~parent:m ~name:"k" 4. in
  let e = add_resistor b ~parent:m ~name:"e" 16. in
  add_capacitance b k 1.;
  add_capacitance b e 1.;
  mark_output b ~label:"e" e;
  (finish b, k, e, m)

let path_tests =
  let open Rctree.Path in
  [
    Alcotest.test_case "resistance_to_root (R_kk)" `Quick (fun () ->
        let t, k, e, m = build_fig3 () in
        check_float "Rkk" 7. (resistance_to_root t k);
        check_float "Ree" 19. (resistance_to_root t e);
        check_float "Rmm" 3. (resistance_to_root t m);
        check_float "root" 0. (resistance_to_root t (Rctree.Tree.input t)));
    Alcotest.test_case "all_resistances_to_root agrees" `Quick (fun () ->
        let t, _, _, _ = build_fig3 () in
        let all = all_resistances_to_root t in
        Rctree.Tree.iter_nodes t ~f:(fun id ->
            check_float ("node " ^ string_of_int id) (resistance_to_root t id) all.(id)));
    Alcotest.test_case "lca of siblings is branch point" `Quick (fun () ->
        let t, k, e, m = build_fig3 () in
        check_int "lca" m (lowest_common_ancestor t k e));
    Alcotest.test_case "lca with ancestor" `Quick (fun () ->
        let t, k, _, m = build_fig3 () in
        check_int "lca" m (lowest_common_ancestor t k m));
    Alcotest.test_case "shared_resistance matches Fig. 3" `Quick (fun () ->
        let t, k, e, _ = build_fig3 () in
        check_float "Rke" 3. (shared_resistance t k e);
        check_float "Rke sym" 3. (shared_resistance t e k);
        check_float "Rkk as shared" 7. (shared_resistance t k k));
    Alcotest.test_case "shared_resistances_to agrees with pairwise" `Quick (fun () ->
        let t, _, e, _ = build_fig3 () in
        let fast = shared_resistances_to t e in
        Rctree.Tree.iter_nodes t ~f:(fun k ->
            check_float ("node " ^ string_of_int k) (shared_resistance t k e) fast.(k)));
    Alcotest.test_case "on_path_to marks the spine" `Quick (fun () ->
        let t, k, e, m = build_fig3 () in
        let marks = on_path_to t e in
        check_bool "root" true marks.(Rctree.Tree.input t);
        check_bool "m" true marks.(m);
        check_bool "e" true marks.(e);
        check_bool "k" false marks.(k));
    Alcotest.test_case "path_to_root order" `Quick (fun () ->
        let t, k, _, m = build_fig3 () in
        match path_to_root t k with
        | first :: rest ->
            check_int "starts at k" k first;
            check_bool "passes m" true (List.mem m rest);
            check_int "ends at root" (Rctree.Tree.input t) (List.nth rest (List.length rest - 1))
        | [] -> Alcotest.fail "empty path");
  ]

(* --- Moments -------------------------------------------------------------- *)

let moments_tests =
  [
    Alcotest.test_case "fig7 hand-computed values" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        let ts = Rctree.Moments.times t ~output:e in
        check_float "tp" 419. ts.Rctree.Times.t_p;
        check_float "td" 363. ts.Rctree.Times.t_d;
        check_close "tr" (6033. /. 18.) ts.Rctree.Times.t_r);
    Alcotest.test_case "t_p matches per-output t_p" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        check_close "tp" (Rctree.Moments.t_p t) (Rctree.Moments.times t ~output:e).Rctree.Times.t_p);
    Alcotest.test_case "fast equals direct" `Quick (fun () ->
        let t, _, side, e = build_fig7 () in
        check_times "e" (Rctree.Moments.times_direct t ~output:e) (Rctree.Moments.times t ~output:e);
        check_times "b"
          (Rctree.Moments.times_direct t ~output:side)
          (Rctree.Moments.times t ~output:side));
    Alcotest.test_case "off-path line contributes branch-point terms" `Quick (fun () ->
        let open Rctree.Tree.Builder in
        let b = create () in
        let a = add_resistor b ~parent:(input b) ~name:"a" 10. in
        let (_ : Rctree.Tree.node_id) = add_line b ~parent:a ~name:"side" 6. 2. in
        mark_output b ~label:"a" a;
        let t = finish b in
        let ts = Rctree.Moments.times t ~output:a in
        check_float "td" 20. ts.Rctree.Times.t_d;
        check_float "tp" 26. ts.Rctree.Times.t_p;
        check_float "tr" 20. ts.Rctree.Times.t_r);
    Alcotest.test_case "on-path line integral" `Quick (fun () ->
        let open Rctree.Tree.Builder in
        let b = create () in
        let out = add_line b ~parent:(input b) ~name:"out" 6. 2. in
        mark_output b out;
        let t = finish b in
        check_times "line"
          (Rctree.Times.single_line ~resistance:6. ~capacitance:2.)
          (Rctree.Moments.times t ~output:out));
    Alcotest.test_case "elmore equals t_d" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        check_close "elmore" 363. (Rctree.Moments.elmore t ~output:e));
    Alcotest.test_case "quadratic_sum" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        check_close "sum" 6033. (Rctree.Moments.quadratic_sum t ~output:e));
    Alcotest.test_case "Analysis.all_times covers marked outputs" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        match Rctree.Analysis.all_times (Rctree.Analysis.make t) with
        | [| (label, _, ts) |] ->
            check_string "label" "e" label;
            check_float "td" 363. ts.Rctree.Times.t_d
        | other -> Alcotest.failf "expected 1 output, got %d" (Array.length other));
    Alcotest.test_case "unknown output raises" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        check_invalid "bad node" (fun () -> Rctree.Moments.times t ~output:99));
    Alcotest.test_case "all_times agrees with per-output times" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        let all = Rctree.Moments.all_times t in
        Rctree.Tree.iter_nodes t ~f:(fun id ->
            check_times
              ("node " ^ string_of_int id)
              (Rctree.Moments.times t ~output:id)
              all.(id)));
    Alcotest.test_case "all_times on a pure line chain" `Quick (fun () ->
        let open Rctree.Tree.Builder in
        let b = create () in
        let m = add_line b ~parent:(input b) ~name:"m" 4. 2. in
        let e = add_line b ~parent:m ~name:"e" 6. 3. in
        mark_output b e;
        let t = finish b in
        let all = Rctree.Moments.all_times t in
        check_times "mid" (Rctree.Moments.times t ~output:m) all.(m);
        check_times "end" (Rctree.Moments.times t ~output:e) all.(e));
    Alcotest.test_case "output at input is degenerate" `Quick (fun () ->
        let open Rctree.Tree.Builder in
        let b = create () in
        let n = add_resistor b ~parent:(input b) 5. in
        add_capacitance b n 1.;
        mark_output b ~label:"at-input" (input b);
        let t = finish b in
        let ts = Rctree.Moments.times t ~output:(Rctree.Tree.input t) in
        check_float "td" 0. ts.Rctree.Times.t_d;
        check_bool "degenerate" true (Rctree.Times.is_degenerate ts));
  ]

(* --- Convert ---------------------------------------------------------------- *)

let convert_tests =
  [
    Alcotest.test_case "tree_of_expr fig7 times" `Quick (fun () ->
        let t = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
        let out = Rctree.Tree.output_named t "out" in
        check_times "fig7" (Rctree.Expr.times Rctree.Expr.fig7) (Rctree.Moments.times t ~output:out));
    Alcotest.test_case "tree_of_expr marks single output" `Quick (fun () ->
        let t = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
        check_int "outputs" 1 (List.length (Rctree.Tree.outputs t)));
    Alcotest.test_case "expr_of_tree round-trips fig7" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        let expr = Rctree.Convert.expr_of_tree t ~output:e in
        check_times "roundtrip" (Rctree.Moments.times t ~output:e) (Rctree.Expr.times expr));
    Alcotest.test_case "expr_of_tree on a non-leaf output" `Quick (fun () ->
        let t, a, _, _ = build_fig7 () in
        let expr = Rctree.Convert.expr_of_tree t ~output:a in
        check_times "mid" (Rctree.Moments.times t ~output:a) (Rctree.Expr.times expr));
    Alcotest.test_case "expr_of_tree unknown node raises" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        check_invalid "bad" (fun () -> Rctree.Convert.expr_of_tree t ~output:1234));
    Alcotest.test_case "branch expression keeps total capacitance" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        let expr = Rctree.Convert.expr_of_tree t ~output:e in
        check_float "ct" 22. (Rctree.Expr.eval expr).Rctree.Twoport.c_total);
  ]

(* --- Lump ---------------------------------------------------------------------- *)

let lump_tests =
  [
    Alcotest.test_case "lumped tree stays lumped" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        let l = Rctree.Lump.discretize ~segments:1 t in
        check_bool "lumped" true (Rctree.Lump.is_lumped l);
        check_bool "outputs survive" true (Rctree.Tree.output_named l "e" >= 0));
    Alcotest.test_case "pi sections preserve first moment exactly" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        List.iter
          (fun segments ->
            let l = Rctree.Lump.discretize ~segments t in
            let out = Rctree.Tree.output_named l "e" in
            check_close ~eps:1e-9
              ("td @" ^ string_of_int segments)
              363.
              (Rctree.Moments.times l ~output:out).Rctree.Times.t_d)
          [ 1; 3; 16 ]);
    Alcotest.test_case "t_r converges to the distributed value" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        let exact = (Rctree.Moments.times t ~output:e).Rctree.Times.t_r in
        let err segments =
          let l = Rctree.Lump.discretize ~segments t in
          let out = Rctree.Tree.output_named l "e" in
          Float.abs ((Rctree.Moments.times l ~output:out).Rctree.Times.t_r -. exact)
        in
        check_bool "decreasing" true (err 2 > err 8 && err 8 > err 32);
        check_bool "small at 32" true (err 32 < 0.05));
    Alcotest.test_case "L sections converge too, from further away" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        let exact = (Rctree.Moments.times t ~output:e).Rctree.Times.t_d in
        let err scheme segments =
          let l = Rctree.Lump.discretize ~scheme ~segments t in
          let out = Rctree.Tree.output_named l "e" in
          Float.abs ((Rctree.Moments.times l ~output:out).Rctree.Times.t_d -. exact)
        in
        check_bool "L worse than pi" true
          (err Rctree.Lump.L_sections 4 > err Rctree.Lump.Pi_sections 4);
        check_bool "L converging" true
          (err Rctree.Lump.L_sections 4 > err Rctree.Lump.L_sections 16));
    Alcotest.test_case "segment count in node count" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        let l = Rctree.Lump.discretize ~segments:8 t in
        check_int "nodes" (4 + 7) (Rctree.Tree.node_count l));
    Alcotest.test_case "zero segments raises" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        check_invalid "segments" (fun () -> Rctree.Lump.discretize ~segments:0 t));
    Alcotest.test_case "names preserved" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        let l = Rctree.Lump.discretize ~segments:4 t in
        check_bool "a kept" true (Rctree.Tree.find_node l "a" <> None);
        check_bool "interior named" true (Rctree.Tree.find_node l "e.seg1" <> None));
  ]

(* --- Validate -------------------------------------------------------------------- *)

let validate_tests =
  let open Rctree.Validate in
  [
    Alcotest.test_case "fig7 is clean" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        check_int "no problems" 0 (List.length (problems t));
        check_bool "analyzable" true (is_analyzable t));
    Alcotest.test_case "no capacitance detected" `Quick (fun () ->
        let b = Rctree.Tree.Builder.create () in
        let n = Rctree.Tree.Builder.add_resistor b ~parent:(Rctree.Tree.Builder.input b) 1. in
        Rctree.Tree.Builder.mark_output b n;
        let t = Rctree.Tree.Builder.finish b in
        check_bool "found" true (List.mem No_capacitance (problems t));
        check_bool "fatal" false (is_analyzable t));
    Alcotest.test_case "no outputs detected" `Quick (fun () ->
        let b = Rctree.Tree.Builder.create () in
        let n = Rctree.Tree.Builder.add_resistor b ~parent:(Rctree.Tree.Builder.input b) 1. in
        Rctree.Tree.Builder.add_capacitance b n 1.;
        let t = Rctree.Tree.Builder.finish b in
        check_bool "found" true (List.mem No_outputs (problems t)));
    Alcotest.test_case "degenerate output flagged, not fatal" `Quick (fun () ->
        let b = Rctree.Tree.Builder.create () in
        let n = Rctree.Tree.Builder.add_resistor b ~parent:(Rctree.Tree.Builder.input b) 1. in
        Rctree.Tree.Builder.add_capacitance b n 1.;
        Rctree.Tree.Builder.mark_output b ~label:"x" (Rctree.Tree.Builder.input b);
        let t = Rctree.Tree.Builder.finish b in
        check_bool "found" true (List.mem (Output_without_resistance "x") (problems t));
        check_bool "tolerated" true (is_analyzable t));
    Alcotest.test_case "dangling resistor flagged" `Quick (fun () ->
        let b = Rctree.Tree.Builder.create () in
        let n =
          Rctree.Tree.Builder.add_resistor b ~parent:(Rctree.Tree.Builder.input b) ~name:"stub" 1.
        in
        let m = Rctree.Tree.Builder.add_resistor b ~parent:(Rctree.Tree.Builder.input b) 1. in
        Rctree.Tree.Builder.add_capacitance b m 1.;
        Rctree.Tree.Builder.mark_output b m;
        let t = Rctree.Tree.Builder.finish b in
        ignore n;
        check_bool "found" true (List.mem (Dangling_resistor "stub") (problems t)));
    Alcotest.test_case "check_exn raises on fatal" `Quick (fun () ->
        let b = Rctree.Tree.Builder.create () in
        let t = Rctree.Tree.Builder.finish b in
        check_invalid "fatal" (fun () -> check_exn t));
    Alcotest.test_case "check_exn passes clean tree" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        check_exn t);
  ]

(* --- top-level convenience API ------------------------------------------------------ *)

let api_tests =
  [
    Alcotest.test_case "analyze_named" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        let ts = Rctree.analyze_named t ~output:"e" in
        check_float "td" 363. ts.Rctree.Times.t_d);
    Alcotest.test_case "analyze_named unknown raises" `Quick (fun () ->
        let t, _, _, _ = build_fig7 () in
        check_invalid "unknown" (fun () -> Rctree.analyze_named t ~output:"nope"));
    Alcotest.test_case "delay_bounds ordering" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        let lo, hi = Rctree.delay_bounds t ~output:e ~threshold:0.5 in
        check_bool "lo<=hi" true (lo <= hi));
    Alcotest.test_case "voltage_bounds ordering" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        let lo, hi = Rctree.voltage_bounds t ~output:e ~time:100. in
        check_bool "lo<=hi" true (lo <= hi));
    Alcotest.test_case "elmore_delay" `Quick (fun () ->
        let t, _, _, e = build_fig7 () in
        check_float "elmore" 363. (Rctree.elmore_delay t ~output:e));
  ]

(* --- Lean tree layout ----------------------------------------------------- *)

(* A tree stores names and line capacitances only once it has some, and
   indexes children on first use; none of that may show in a query. *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_element (a : Rctree.Element.t option) (b : Rctree.Element.t option) =
  match (a, b) with
  | None, None -> true
  | Some (Resistor x), Some (Resistor y) -> same_bits x y
  | Some (Line x), Some (Line y) ->
      same_bits x.resistance y.resistance && same_bits x.capacitance y.capacitance
  | _ -> false

(* [n] nodes under random earlier parents; the edge to node [k] is a line
   when [line k].  Returns the tree and, per node, the element and the
   lumped capacitance the builder was given. *)
let random_tree ~seed ~n ~line =
  let open Rctree.Tree.Builder in
  let st = Random.State.make [| seed |] in
  let b = create () in
  let elements = Array.make n None and caps = Array.make n 0. in
  for k = 1 to n - 1 do
    let parent = Random.State.int st k in
    let r = 0.5 +. Random.State.float st 10. in
    let id =
      if line k then begin
        let c = 0.5 +. Random.State.float st 3. in
        elements.(k) <- Some (Rctree.Element.Line { resistance = r; capacitance = c });
        add_line b ~parent r c
      end
      else begin
        elements.(k) <- Some (Rctree.Element.Resistor r);
        add_resistor b ~parent r
      end
    in
    assert (id = k);
    caps.(k) <- Random.State.float st 2.;
    add_capacitance b k caps.(k)
  done;
  (finish b, elements, caps)

let layout_tests =
  let open Rctree.Tree in
  [
    Alcotest.test_case "no explicit names: defaults, lookups and output labels" `Quick (fun () ->
        let b = Builder.create () in
        let at = ref (Builder.input b) in
        for _ = 1 to 49 do
          at := Builder.add_resistor b ~parent:!at 1.
        done;
        Builder.mark_output b 7;
        Builder.mark_output b (Builder.input b);
        let t = Builder.finish b in
        check_string "input" "in" (node_name t 0);
        for k = 1 to 49 do
          let name = Printf.sprintf "n%d" k in
          check_string "default" name (node_name t k);
          check_bool name true (find_node t name = Some k)
        done;
        check_bool "in" true (find_node t "in" = Some 0);
        List.iter
          (fun missing -> check_bool missing true (find_node t missing = None))
          [ "n0"; "n50"; "n07"; "n-1"; "n"; ""; "zz" ];
        Alcotest.(check (list (pair string int))) "labels" [ ("n7", 7); ("in", 0) ] (outputs t));
    Alcotest.test_case "a first name after several doublings keeps earlier defaults" `Quick
      (fun () ->
        let b = Builder.create () in
        for k = 1 to 100 do
          ignore (Builder.add_resistor b ~parent:(k - 1) 1. : node_id)
        done;
        let late = Builder.add_resistor b ~parent:100 ~name:"late" 1. in
        let after = Builder.add_resistor b ~parent:late 1. in
        Builder.mark_output b 40;
        let t = Builder.finish b in
        check_string "input" "in" (node_name t 0);
        for k = 1 to 100 do
          check_string "earlier" (Printf.sprintf "n%d" k) (node_name t k)
        done;
        check_string "late" "late" (node_name t late);
        check_string "after" (Printf.sprintf "n%d" after) (node_name t after);
        check_bool "find late" true (find_node t "late" = Some late);
        check_bool "find n40" true (find_node t "n40" = Some 40);
        check_bool "find in" true (find_node t "in" = Some 0);
        check_bool "n101 is named late" true (find_node t "n101" = None);
        Alcotest.(check (list (pair string int))) "label" [ ("n40", 40) ] (outputs t));
    Alcotest.test_case "line-free and late-line trees answer bit for bit" `Quick (fun () ->
        List.iter
          (fun (what, line) ->
            let n = 300 in
            let t, elements, caps = random_tree ~seed:17 ~n ~line in
            let line_c k =
              match elements.(k) with
              | Some (Rctree.Element.Line l) -> l.capacitance
              | Some _ | None -> 0.
            in
            let total = ref 0. in
            for k = 0 to n - 1 do
              total := !total +. caps.(k) +. line_c k
            done;
            for k = 0 to n - 1 do
              check_bool (Printf.sprintf "%s element %d" what k) true
                (same_element elements.(k) (element t k))
            done;
            check_bool (what ^ " total capacitance") true (same_bits !total (total_capacitance t));
            check_bool (what ^ " lines") (List.exists line (List.init n Fun.id))
              (has_distributed_lines t))
          [
            ("line-free", fun _ -> false);
            ("late line", fun k -> k = 77 || (k > 77 && k mod 5 = 0));
          ]);
    Alcotest.test_case "a name and a line added after finish stay out of the frozen tree" `Quick
      (fun () ->
        let open Builder in
        let b = create ~name:"lean" () in
        let a = add_resistor b ~parent:(input b) 2. in
        add_capacitance b a 1.;
        mark_output b a;
        let t = finish b in
        let before = Format.asprintf "%a" pp t in
        let named = add_resistor b ~parent:a ~name:"x" 3. in
        let wire = add_line b ~parent:named 4. 5. in
        mark_output b wire;
        check_string "pp" before (Format.asprintf "%a" pp t);
        check_int "nodes" 2 (node_count t);
        check_bool "no line" false (has_distributed_lines t);
        check_float "total capacitance" 1. (total_capacitance t);
        check_string "default name" "n1" (node_name t a);
        check_bool "x absent" true (find_node t "x" = None);
        let grown = finish b in
        check_string "named in the new tree" "x" (node_name grown named);
        check_string "default kept" "n1" (node_name grown a);
        check_float "line in the new tree" 6. (total_capacitance grown));
    Alcotest.test_case "two domains index the children alike" `Quick (fun () ->
        let n = 20_000 in
        let t, _, _ = random_tree ~seed:5 ~n ~line:(fun k -> k mod 97 = 0) in
        let expected = Array.make n [] in
        for k = n - 1 downto 1 do
          let p = Option.get (parent t k) in
          expected.(p) <- k :: expected.(p)
        done;
        let all () = Array.init n (children t) in
        let d1 = Domain.spawn all and d2 = Domain.spawn all in
        let c1 = Domain.join d1 and c2 = Domain.join d2 in
        check_bool "domains agree" true (c1 = c2);
        check_bool "as from parent" true (c1 = expected));
    Alcotest.test_case "a bad resistor value is reported before a bad parent" `Quick (fun () ->
        let b = Builder.create () in
        let bad_value =
          Invalid_argument "Element.resistor: value must be finite and non-negative"
        in
        List.iter
          (fun r ->
            Alcotest.check_raises "value, good parent" bad_value (fun () ->
                ignore (Builder.add_resistor b ~parent:0 r : node_id));
            Alcotest.check_raises "value first" bad_value (fun () ->
                ignore (Builder.add_resistor b ~parent:9 r : node_id)))
          [ -1.; Float.nan; Float.infinity ];
        Alcotest.check_raises "then parent"
          (Invalid_argument "Tree.Builder.add_node: unknown node 9") (fun () ->
            ignore (Builder.add_resistor b ~parent:9 1. : node_id));
        check_int "nothing added" 1 (node_count (Builder.finish b)));
  ]

let () =
  Alcotest.run "rctree"
    [
      ("units", units_tests);
      ("element", element_tests);
      ("times", times_tests);
      ("twoport", twoport_tests);
      ("expr", expr_tests);
      ("tree", tree_tests);
      ("path", path_tests);
      ("moments", moments_tests);
      ("convert", convert_tests);
      ("lump", lump_tests);
      ("validate", validate_tests);
      ("api", api_tests);
      ("layout", layout_tests);
    ]
