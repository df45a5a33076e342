(* Tests of the SPICE substrate: deck model, parser, elaboration into
   RC trees, and printing round-trips. *)

let check_close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse_ok s =
  match Spice.Parser.parse_string s with
  | Ok deck -> deck
  | Error e -> Alcotest.failf "unexpected parse error: %s" (Spice.Parser.error_to_string e)

let parse_err s =
  match Spice.Parser.parse_string s with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let elab_ok deck =
  match Spice.Elaborate.to_tree deck with
  | Ok tree -> tree
  | Error e -> Alcotest.failf "unexpected elab error: %s" (Spice.Elaborate.error_to_string e)

let elab_err deck =
  match Spice.Elaborate.to_tree deck with
  | Ok _ -> Alcotest.fail "expected an elaboration error"
  | Error e -> e

let fig7_text =
  "VIN in 0\n\
   R1 in a 15\n\
   C1 a 0 2\n\
   R2 a b 8\n\
   C2 b 0 7\n\
   U1 a e 3 4\n\
   C3 e 0 9\n\
   .output e\n\
   .end\n"

let parser_tests =
  [
    Alcotest.test_case "cards of each kind" `Quick (fun () ->
        let deck = parse_ok "V1 in 0\nR1 in a 10\nC1 a 0 1p\nU1 a b 100 2p\n.end" in
        check_int "cards" 4 (List.length deck.Spice.Deck.cards));
    Alcotest.test_case "element names strip the type letter" `Quick (fun () ->
        let deck = parse_ok "Vdrv in 0\nRload in a 1\nC7 a 0 1" in
        match deck.Spice.Deck.cards with
        | [ s; r; c ] ->
            check_string "v" "drv" (Spice.Deck.card_name s);
            check_string "r" "load" (Spice.Deck.card_name r);
            check_string "c" "7" (Spice.Deck.card_name c)
        | _ -> Alcotest.fail "wrong card count");
    Alcotest.test_case "si suffixes in values" `Quick (fun () ->
        let deck = parse_ok "V1 in 0\nR1 in a 1.5k\nC1 a 0 10p" in
        match deck.Spice.Deck.cards with
        | [ _; Spice.Deck.Resistor { value; _ }; Spice.Deck.Capacitor { value = c; _ } ] ->
            check_close "r" 1500. value;
            check_close ~eps:1e-18 "c" 1e-11 c
        | _ -> Alcotest.fail "unexpected cards");
    Alcotest.test_case "comments and blank lines skipped" `Quick (fun () ->
        let deck = parse_ok "* a comment\n\nV1 in 0\n* another\nR1 in a 1\n" in
        check_int "cards" 2 (List.length deck.Spice.Deck.cards));
    Alcotest.test_case "trailing comments stripped" `Quick (fun () ->
        let deck = parse_ok "V1 in 0\nR1 in a 1 ; the driver\n" in
        check_int "cards" 2 (List.length deck.Spice.Deck.cards));
    Alcotest.test_case "continuation lines join" `Quick (fun () ->
        let deck = parse_ok "V1 in 0\nU1 a\n+ b 100\n+ 2\n" in
        match deck.Spice.Deck.cards with
        | [ _; Spice.Deck.Line { resistance; capacitance; _ } ] ->
            check_close "r" 100. resistance;
            check_close "c" 2. capacitance
        | _ -> Alcotest.fail "continuation not joined");
    Alcotest.test_case "title directive" `Quick (fun () ->
        let deck = parse_ok ".title my network\nV1 in 0\n" in
        check_string "title" "my network" deck.Spice.Deck.title);
    Alcotest.test_case "first non-card line is the title" `Quick (fun () ->
        let deck = parse_ok "my favourite rc tree\nV1 in 0\n" in
        check_string "title" "my favourite rc tree" deck.Spice.Deck.title);
    Alcotest.test_case "outputs accumulate" `Quick (fun () ->
        let deck = parse_ok "V1 in 0\n.output a b\n.output c\n" in
        Alcotest.(check (list string)) "outputs" [ "a"; "b"; "c" ] deck.Spice.Deck.outputs);
    Alcotest.test_case "content after .end rejected" `Quick (fun () ->
        let e = parse_err "V1 in 0\n.end\nR1 in a 1\n" in
        check_int "line" 3 e.Spice.Parser.line);
    Alcotest.test_case "bad value reports the line" `Quick (fun () ->
        let e = parse_err "V1 in 0\nR1 in a abc\n" in
        check_int "line" 2 e.Spice.Parser.line);
    Alcotest.test_case "wrong arity rejected" `Quick (fun () ->
        ignore (parse_err "V1 in 0\nR1 in 10\n"));
    Alcotest.test_case "unknown directive rejected" `Quick (fun () ->
        ignore (parse_err "V1 in 0\n.nonsense\n"));
    Alcotest.test_case "unknown card letter rejected" `Quick (fun () ->
        ignore (parse_err "V1 in 0\nQ1 a b c\n"));
    Alcotest.test_case "orphan continuation rejected" `Quick (fun () ->
        ignore (parse_err "+ R1 in a 1\n"));
    Alcotest.test_case "empty deck parses" `Quick (fun () ->
        let deck = parse_ok "" in
        check_int "cards" 0 (List.length deck.Spice.Deck.cards));
  ]

let elaborate_tests =
  [
    Alcotest.test_case "fig7 deck gives the paper times" `Quick (fun () ->
        let tree = elab_ok (parse_ok fig7_text) in
        let out = Rctree.Tree.output_named tree "e" in
        let ts = Rctree.Moments.times tree ~output:out in
        check_close "tp" 419. ts.Rctree.Times.t_p;
        check_close "td" 363. ts.Rctree.Times.t_d;
        check_close "tr" (6033. /. 18.) ts.Rctree.Times.t_r);
    Alcotest.test_case "edges may be written in either direction" `Quick (fun () ->
        let tree = elab_ok (parse_ok "V1 in 0\nR1 a in 10\nC1 a 0 1\n.output a\n") in
        let out = Rctree.Tree.output_named tree "a" in
        check_close "td" 10. (Rctree.Moments.elmore tree ~output:out));
    Alcotest.test_case "gnd alias accepted" `Quick (fun () ->
        let tree = elab_ok (parse_ok "V1 in GND\nR1 in a 10\nC1 a gnd 1\n.output a\n") in
        check_int "nodes" 2 (Rctree.Tree.node_count tree));
    Alcotest.test_case "default outputs are the leaves" `Quick (fun () ->
        let tree = elab_ok (parse_ok "V1 in 0\nR1 in a 1\nC1 a 0 1\nR2 a b 1\nC2 b 0 1\n") in
        (* only b is a leaf *)
        match Rctree.Tree.outputs tree with
        | [ (label, _) ] -> check_string "leaf" "b" label
        | other -> Alcotest.failf "expected 1 output, got %d" (List.length other));
    Alcotest.test_case "parallel capacitors add" `Quick (fun () ->
        let tree = elab_ok (parse_ok "V1 in 0\nR1 in a 1\nC1 a 0 1\nC2 a 0 2\n.output a\n") in
        let a = Option.get (Rctree.Tree.find_node tree "a") in
        check_close "c" 3. (Rctree.Tree.capacitance tree a));
    Alcotest.test_case "no source detected" `Quick (fun () ->
        check_bool "err" true (elab_err (parse_ok "R1 in a 1\nC1 a 0 1\n") = Spice.Elaborate.No_source));
    Alcotest.test_case "multiple sources detected" `Quick (fun () ->
        match elab_err (parse_ok "V1 in 0\nV2 other 0\nR1 in a 1\nC1 a 0 1\n") with
        | Spice.Elaborate.Multiple_sources names -> check_int "two" 2 (List.length names)
        | _ -> Alcotest.fail "wrong error");
    Alcotest.test_case "floating source detected" `Quick (fun () ->
        check_bool "err" true
          (elab_err (parse_ok "V1 in out\nR1 in a 1\nC1 a 0 1\n")
          = Spice.Elaborate.Source_not_grounded "1"));
    Alcotest.test_case "grounded resistor detected" `Quick (fun () ->
        check_bool "err" true
          (elab_err (parse_ok "V1 in 0\nR1 in 0 10\n") = Spice.Elaborate.Element_to_ground "1"));
    Alcotest.test_case "floating capacitor detected" `Quick (fun () ->
        check_bool "err" true
          (elab_err (parse_ok "V1 in 0\nR1 in a 1\nC1 a b 1\n")
          = Spice.Elaborate.Capacitor_not_grounded "1"));
    Alcotest.test_case "cycle detected" `Quick (fun () ->
        match elab_err (parse_ok "V1 in 0\nR1 in a 1\nR2 a b 1\nR3 b in 1\nC1 b 0 1\n") with
        | Spice.Elaborate.Cycle _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Spice.Elaborate.error_to_string e));
    Alcotest.test_case "disconnected island detected" `Quick (fun () ->
        match elab_err (parse_ok "V1 in 0\nR1 in a 1\nC1 a 0 1\nR9 x y 1\nC9 y 0 1\n") with
        | Spice.Elaborate.Disconnected nodes ->
            Alcotest.(check (list string)) "nodes" [ "x"; "y" ] nodes
        | e -> Alcotest.failf "wrong error: %s" (Spice.Elaborate.error_to_string e));
    Alcotest.test_case "unknown output detected" `Quick (fun () ->
        check_bool "err" true
          (elab_err (parse_ok "V1 in 0\nR1 in a 1\nC1 a 0 1\n.output zz\n")
          = Spice.Elaborate.Unknown_output "zz"));
    Alcotest.test_case "to_tree_exn raises with message" `Quick (fun () ->
        match Spice.Elaborate.to_tree_exn (parse_ok "R1 in a 1\n") with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg -> check_bool "has message" true (String.length msg > 0));
    Alcotest.test_case "negative values name the card" `Quick (fun () ->
        List.iter
          (fun (text, card) ->
            check_bool card true (elab_err (parse_ok text) = Spice.Elaborate.Bad_value card))
          [
            ("V1 in 0\nR1 in a -5\nC1 a 0 1\n", "R1");
            ("V1 in 0\nR1 in a 5\nC3 a 0 -1\n", "C3");
            ("V1 in 0\nR1 in a 5\nUw a b -1 2\nC1 b 0 1\n", "Uw");
            ("V1 in 0\nR1 in a 5\nU2 a b 1 -2\nC1 b 0 1\n", "U2");
          ]);
    Alcotest.test_case "non-finite values name the card" `Quick (fun () ->
        (* the parser refuses these, so build the deck directly *)
        let deck value =
          Spice.Deck.make
            [
              Spice.Deck.Source { name = "1"; n1 = "in"; n2 = "0" };
              Spice.Deck.Resistor { name = "1"; n1 = "in"; n2 = "a"; value = 1. };
              Spice.Deck.Capacitor { name = "9"; n1 = "a"; n2 = "0"; value };
            ]
        in
        List.iter
          (fun v ->
            check_bool (Printf.sprintf "%g" v) true
              (elab_err (deck v) = Spice.Elaborate.Bad_value "C9"))
          [ nan; infinity; neg_infinity ];
        match Spice.Elaborate.to_tree_exn (deck nan) with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
            check_bool "message" true
              (String.ends_with ~suffix:{|card "C9": value must be finite and non-negative|} msg));
  ]

let include_tests =
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc
  in
  [
    Alcotest.test_case "include splices cards and outputs" `Quick (fun () ->
        let dir = Filename.temp_file "spice" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        write (Filename.concat dir "branch.sp") "R2 a b 8\nC2 b 0 7\n.output b\n";
        write (Filename.concat dir "main.sp")
          "VIN in 0\nR1 in a 15\nC1 a 0 2\n.include branch.sp\nU1 a e 3 4\nC3 e 0 9\n.output e\n";
        (match Spice.Parser.parse_file (Filename.concat dir "main.sp") with
        | Error e -> Alcotest.failf "parse: %s" (Spice.Parser.error_to_string e)
        | Ok deck ->
            check_int "cards" 7 (List.length deck.Spice.Deck.cards);
            Alcotest.(check (list string)) "outputs" [ "b"; "e" ] deck.Spice.Deck.outputs;
            let tree = elab_ok deck in
            let out = Rctree.Tree.output_named tree "e" in
            check_close "td" 363. (Rctree.Moments.elmore tree ~output:out));
        Sys.remove (Filename.concat dir "branch.sp");
        Sys.remove (Filename.concat dir "main.sp");
        Unix.rmdir dir);
    Alcotest.test_case "missing include reported with the path" `Quick (fun () ->
        let path = Filename.temp_file "spice" ".sp" in
        write path "VIN in 0\n.include nonexistent.sp\n";
        (match Spice.Parser.parse_file path with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e ->
            check_int "line" 2 e.Spice.Parser.line;
            check_bool "names file" true
              (let msg = e.Spice.Parser.message in
               let rec has i =
                 i + 11 <= String.length msg && (String.sub msg i 11 = "nonexistent" || has (i + 1))
               in
               has 0));
        Sys.remove path);
    Alcotest.test_case "include depth capped" `Quick (fun () ->
        let path = Filename.temp_file "spice" ".sp" in
        write path (Printf.sprintf ".include %s\n" (Filename.basename path));
        (match Spice.Parser.parse_file ~max_include_depth:4 path with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error _ -> ());
        Sys.remove path);
    Alcotest.test_case "include rejected without a base directory" `Quick (fun () ->
        match Spice.Parser.parse_string "VIN in 0\n.include x.sp\n" with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e -> check_int "line" 2 e.Spice.Parser.line);
    Alcotest.test_case "bad value pinpoints line and column" `Quick (fun () ->
        let e = parse_err "VIN in 0\nR1 in a bogus\n" in
        check_int "line" 2 e.Spice.Parser.line;
        check_int "column" 9 e.Spice.Parser.column;
        check_bool "rendered" true
          (e.Spice.Parser.message <> ""
          && String.length (Spice.Parser.error_to_string e) > 0));
    Alcotest.test_case "unknown card pinpoints the head token" `Quick (fun () ->
        let e = parse_err "VIN in 0\nX1 a b 1\n" in
        check_int "line" 2 e.Spice.Parser.line;
        check_int "column" 1 e.Spice.Parser.column);
    Alcotest.test_case "card-shape errors carry column 0 or the head" `Quick (fun () ->
        let e = parse_err "VIN in 0\nR1 in a\n" in
        check_int "line" 2 e.Spice.Parser.line;
        check_int "column" 1 e.Spice.Parser.column);
  ]

(* Behaviour of the front end pinned exactly: error line, column and
   message, and the tree elaboration builds (node order, parents,
   values, capacitance bits, outputs). *)

let render_error s =
  match Spice.Parser.parse_string s with
  | Ok _ -> "ok"
  | Error { Spice.Parser.line; column; message } -> Printf.sprintf "%d:%d:%s" line column message

let render_tree t =
  let b = Buffer.create 256 in
  Rctree.Tree.iter_nodes t ~f:(fun id ->
      Printf.bprintf b "%d %s parent=%s c=%h elem=%s\n" id (Rctree.Tree.node_name t id)
        (match Rctree.Tree.parent t id with None -> "-" | Some p -> string_of_int p)
        (Rctree.Tree.capacitance t id)
        (match Rctree.Tree.element t id with
        | None -> "none"
        | Some e -> Format.asprintf "%a" Rctree.Element.pp e));
  List.iter (fun (l, id) -> Printf.bprintf b "out %s=%d\n" l id) (Rctree.Tree.outputs t);
  Buffer.contents b

let render_elab s =
  match Spice.Elaborate.to_tree (parse_ok s) with
  | Ok t -> render_tree t
  | Error e -> Spice.Elaborate.error_to_string e

let pinned_tests =
  [
    Alcotest.test_case "parse errors: line, column, message" `Quick (fun () ->
        List.iter
          (fun (text, expected) -> check_string (Printf.sprintf "%S" text) expected (render_error text))
          [
            (* columns count within the trimmed logical line *)
            ("VIN in 0\n   R1 in a bogus\n", {|2:9:bad resistance value "bogus"|});
            ("VIN in 0\n\tR1\tin  a\tbogus\n", {|2:10:bad resistance value "bogus"|});
            ("VIN in 0\nR1 in a bogus ; comment 1\n", {|2:9:bad resistance value "bogus"|});
            ("VIN in 0\nR1 in a 1 $ bogus\nR2 a b bogus$x\n", {|3:8:bad resistance value "bogus"|});
            (* a continuation joins with one space in place of its '+' *)
            ("VIN in 0\nR1 in\n+ a bogus\n", {|2:10:bad resistance value "bogus"|});
            ("VIN in 0\nR1 in a\n+ bogus\n", {|2:10:bad resistance value "bogus"|});
            ("+ R1 in a 1\n", "1:0:continuation line with nothing to continue");
            ("  \n* c\n  + R1 in a 1\n", "3:0:continuation line with nothing to continue");
            ("VIN in 0\r\nR1 in a 1k\r\nR2 a b bogus\r\n", {|3:8:bad resistance value "bogus"|});
            ("VIN in 0\n.end\n\n* c\nR1 in a 1\n", "5:0:content after .end");
            ("VIN in 0\n.END\n+ R1 in a 1\n", "ok");
            ("VIN in 0\n.probe x\n", {|2:1:unknown directive ".probe"|});
            ("VIN in 0\n  .Probe x\n", {|2:1:unknown directive ".probe"|});
            ("VIN in 0\nR1 in a\n", {|2:1:wrong argument count for "R1"|});
            ("VIN in 0\n  c1 a 0 1 2\n", {|2:1:wrong argument count for "c1"|});
            ("VIN in 0\nU1 a b 1\n", {|2:1:wrong argument count for "U1"|});
            ("VIN in 0\nV2\n", {|2:1:wrong argument count for "V2"|});
            (* a U card's capacitance is read before its resistance *)
            ("VIN in 0\nU1 a b x y\n", {|2:10:bad capacitance value "y"|});
            (* the column is that of the first token equal to the culprit *)
            ("VIN in 0\nR1 a a a\n", {|2:4:bad resistance value "a"|});
            ("VIN in 0\nR1 in bogus bogus\n", {|2:7:bad resistance value "bogus"|});
            ("VIN in 0\nR1 in a 1e400\n", {|2:9:bad resistance value "1e400"|});
            ("VIN in 0\n.output\n", "2:0:.output needs at least one node");
            ("VIN in 0\n.include a b\n", "2:0:.include needs exactly one path");
            ("VIN in 0\n.include \"x.sp\"\n", "2:0:.include needs a base directory (use parse_file)");
            ("VIN in 0\nX1 a b 1\n", {|2:1:unknown card "X1"|});
            ("VIN in 0\nR1 in a 1\nQ\n", {|3:1:unknown card "Q"|});
            (* only ' ' and '\t' separate tokens *)
            ("VIN in 0\nR1 in a 1\n\011R2 a b 1\n", {|3:1:unknown card "\011R2"|});
            ("VIN in 0\nR1 in\ra 1\n", {|2:1:wrong argument count for "R1"|});
          ]);
    Alcotest.test_case "parsed decks: title, cards, outputs" `Quick (fun () ->
        List.iter
          (fun (text, (title, cards, outputs)) ->
            let deck = parse_ok text in
            check_string (Printf.sprintf "title of %S" text) title deck.Spice.Deck.title;
            check_int (Printf.sprintf "cards of %S" text) cards (List.length deck.Spice.Deck.cards);
            Alcotest.(check (list string)) (Printf.sprintf "outputs of %S" text) outputs
              deck.Spice.Deck.outputs)
          [
            ("VIN in 0\nR1 in a 1\n.output a ; b\n.title  my   deck \n", ("my deck", 2, [ "a" ]));
            ("my title\n+ more  words\nVIN in 0\n", ("my title  more  words", 1, []));
            ("R1 in a bogus\nVIN in 0\n", ("R1 in a bogus", 1, []));
            (".output a\n.output b c\nVIN in 0\n", ("", 1, [ "a"; "b"; "c" ]));
            ("VIN in 0\n.title\n", ("", 1, []));
            ("VIN in 0\nR1 in a 1\n+\n+ \n", ("", 2, []));
            ("VIN in 0\nR1 in a 1\n* comment ; x\n   ; only comment\n$ x\n", ("", 2, []));
          ];
        match (parse_ok "VIN in 0\nR in a 1\nC a 0 1\nU a b 1 2\n").Spice.Deck.cards with
        | [ v; r; c; u ] ->
            check_string "names" "IN,r,c,u"
              (String.concat "," (List.map Spice.Deck.card_name [ v; r; c; u ]))
        | _ -> Alcotest.fail "wrong card count");
    Alcotest.test_case "elaborate error precedence" `Quick (fun () ->
        (* each deck fixes the fault reported for the one before *)
        List.iter
          (fun (text, expected) -> check_string (Printf.sprintf "%S" text) expected (render_elab text))
          [
            ( "V1 in 0\nV2 x 0\nR1 in 0 1\nC1 a b 1\nR2 a b 1\nR3 b a 1\nR4 p q 1\n.output zz\n",
              "deck has multiple sources: 1, 2" );
            ("V1 x y\nR1 in 0 1\n", {|source "1" must have one grounded terminal|});
            ( "V1 in 0\nR1 in 0 1\nC1 a b 1\nR2 in a 1\nR3 a in 1\nR4 p q 1\n.output zz\n",
              {|element "1" connects to ground; only capacitors may (an RC tree has no grounded resistors)|}
            );
            ( "V1 in 0\nC1 a b 1\nR1 in 0 1\nR2 in a 1\nR3 a in 1\nR4 p q 1\n.output zz\n",
              {|capacitor "1" must have exactly one grounded terminal|} );
            ("V1 in 0\nR1 in a -1\nR9 in 0 1\n", {|card "R1": value must be finite and non-negative|});
            ( "V1 in 0\nR2 in a 1\nR3 a in 1\nR4 p q 1\n.output zz\n",
              {|element "2" closes a cycle; the network is not a tree|} );
            ("V1 in 0\nR1 in in 10\n", {|element "1" closes a cycle; the network is not a tree|});
            ("V1 in 0\nR2 in a 1\nR4 p q 1\n.output zz\n", "nodes not reachable from the input: p, q");
            ("V1 in 0\nR2 in a 1\n.output zz a\n", {|.output names unknown node "zz"|});
          ]);
    Alcotest.test_case "bfs numbering follows reverse card order" `Quick (fun () ->
        (* a node's incident edges are walked newest card first *)
        let text = "V1 in 0\nR1 a b 1\nR2 in a 2\nR3 c a 3\nU4 in d 4 5\nR5 a e 6\nR6 d f 7\nR7 f g 8\nR8 b h 9\n" in
        let nodes =
          "0 in parent=- c=0x0p+0 elem=none\n1 d parent=0 c=0x0p+0 elem=URC(4,5)\n\
           2 a parent=0 c=0x0p+0 elem=R(2)\n3 f parent=1 c=0x0p+0 elem=R(7)\n\
           4 e parent=2 c=0x0p+0 elem=R(6)\n5 c parent=2 c=0x0p+0 elem=R(3)\n\
           6 b parent=2 c=0x0p+0 elem=R(1)\n7 g parent=3 c=0x0p+0 elem=R(8)\n\
           8 h parent=6 c=0x0p+0 elem=R(9)\n"
        in
        check_string "default outputs" (nodes ^ "out e=4\nout c=5\nout g=7\nout h=8\n") (render_elab text);
        check_string "named outputs" (nodes ^ "out h=8\nout c=5\nout a=2\n")
          (render_elab (text ^ ".output h c a\n")));
    Alcotest.test_case "capacitance sums in card order" `Quick (fun () ->
        check_string "tree"
          "0 in parent=- c=0x0p+0 elem=none\n1 a parent=0 c=0x1.3333333333334p-1 elem=R(1)\n\
           2 b parent=1 c=0x1p+0 elem=R(1)\nout b=2\n"
          (render_elab
             "V1 in 0\nR1 in a 1\nC1 a 0 0.1\nC2 0 a 0.2\nC3 a gnd 0.3\nC4 b 0 0.7\nR2 a b 1\nC5 b 0 0.1\nC6 b 0 0.2\n"));
    Alcotest.test_case "zero-resistance lines fold into their parent" `Quick (fun () ->
        check_string "default outputs"
          "0 in parent=- c=0x0p+0 elem=none\n1 a parent=0 c=0x1.cp+2 elem=R(10)\n\
           2 e parent=1 c=0x1p+0 elem=R(6)\n3 c parent=1 c=0x1.8p+1 elem=R(5)\nout e=2\nout c=3\n"
          (render_elab
             "V1 in 0\nR1 in a 10\nU1 a b 0 2\nC1 a 0 1\nC2 b 0 4\nR2 b c 5\nU2 c d 0 3\nR3 a e 6\nU3 e f 0 1\n");
        check_string "named outputs"
          "0 in parent=- c=0x0p+0 elem=none\n1 a parent=0 c=0x1p+1 elem=R(10)\nout b=1\nout a=1\n"
          (render_elab "V1 in 0\nR1 in a 10\nU1 a b 0 2\n.output b a b\n");
        check_string "zero lines without capacitance stay edges"
          "0 in parent=- c=0x0p+0 elem=none\n1 a parent=0 c=0x0p+0 elem=R(0)\n\
           2 b parent=1 c=0x0p+0 elem=R(0)\nout b=2\n"
          (render_elab "V1 in 0\nR1 in a 0\nU1 a b 0 0\n"));
  ]

let printer_tests =
  [
    Alcotest.test_case "round-trip preserves moments" `Quick (fun () ->
        let tree = elab_ok (parse_ok fig7_text) in
        let text = Spice.Printer.to_string tree in
        let tree2 = elab_ok (parse_ok text) in
        let out = Rctree.Tree.output_named tree2 "e" in
        let ts = Rctree.Moments.times tree2 ~output:out in
        check_close "tp" 419. ts.Rctree.Times.t_p;
        check_close "td" 363. ts.Rctree.Times.t_d);
    Alcotest.test_case "deck_of_tree emits all elements" `Quick (fun () ->
        let tree = elab_ok (parse_ok fig7_text) in
        let deck = Spice.Printer.deck_of_tree tree in
        (* 1 source + 2 R + 1 U + 3 C *)
        check_int "cards" 7 (List.length deck.Spice.Deck.cards));
    Alcotest.test_case "outputs preserved" `Quick (fun () ->
        let tree = elab_ok (parse_ok fig7_text) in
        let deck = Spice.Printer.deck_of_tree tree in
        Alcotest.(check (list string)) "outputs" [ "e" ] deck.Spice.Deck.outputs);
    Alcotest.test_case "deck pp parses back to equal cards" `Quick (fun () ->
        let deck = Spice.Printer.deck_of_tree (elab_ok (parse_ok fig7_text)) in
        let text = Format.asprintf "%a@." Spice.Deck.pp deck in
        let deck2 = parse_ok text in
        check_bool "equal" true (Spice.Deck.equal deck deck2));
    Alcotest.test_case "write_file and parse_file" `Quick (fun () ->
        let tree = elab_ok (parse_ok fig7_text) in
        let path = Filename.temp_file "rctree" ".sp" in
        Spice.Printer.write_file path tree;
        (match Spice.Parser.parse_file path with
        | Ok deck -> check_bool "elaborates" true (Result.is_ok (Spice.Elaborate.to_tree deck))
        | Error e -> Alcotest.failf "parse_file: %s" (Spice.Parser.error_to_string e));
        Sys.remove path);
  ]

let () =
  Alcotest.run "spice"
    [
      ("parser", parser_tests);
      ("elaborate", elaborate_tests);
      ("include", include_tests);
      ("printer", printer_tests);
      ("pinned", pinned_tests);
    ]
