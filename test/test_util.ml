(* Tests of the shared table rendering used by the CLI and examples. *)

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let table_tests =
  let open Reprolib.Table in
  [
    Alcotest.test_case "header and rule" `Quick (fun () ->
        let t = create ~columns:[ "a"; "b" ] in
        add_row t [ "1"; "2" ];
        let s = render t in
        check_bool "header" true (contains s "a");
        check_bool "rule" true (contains s "--"));
    Alcotest.test_case "columns sized to widest cell" `Quick (fun () ->
        let t = create ~columns:[ "x" ] in
        add_row t [ "wide-cell" ];
        let lines = String.split_on_char '\n' (render t) in
        (match lines with
        | header :: _ -> check_bool "padded" true (String.length header >= 9)
        | [] -> Alcotest.fail "no output"));
    Alcotest.test_case "numeric cells right-aligned" `Quick (fun () ->
        let t = create ~columns:[ "name"; "value" ] in
        add_row t [ "aa"; "5" ];
        let s = render t in
        check_bool "right aligned" true (contains s "    5"));
    Alcotest.test_case "text cells left-aligned" `Quick (fun () ->
        let t = create ~columns:[ "name4" ] in
        add_row t [ "ab" ];
        let lines = String.split_on_char '\n' (render t) in
        check_string "padded right" "ab   " (List.nth lines 2));
    Alcotest.test_case "row order preserved" `Quick (fun () ->
        let t = create ~columns:[ "v" ] in
        add_row t [ "first" ];
        add_row t [ "second" ];
        let s = render t in
        let first = String.index s 'f' and second = String.index s 's' in
        check_bool "order" true (first < second));
    Alcotest.test_case "add_float_row formats" `Quick (fun () ->
        let t = create ~columns:[ "label"; "x"; "y" ] in
        add_float_row t "row" [ 1.5; 2.25 ];
        check_bool "value" true (contains (render t) "2.25"));
    Alcotest.test_case "width mismatch raises" `Quick (fun () ->
        let t = create ~columns:[ "a"; "b" ] in
        check_invalid "row" (fun () -> add_row t [ "only-one" ]));
    Alcotest.test_case "empty columns raises" `Quick (fun () ->
        check_invalid "cols" (fun () -> create ~columns:[]));
    Alcotest.test_case "csv output" `Quick (fun () ->
        let t = create ~columns:[ "a"; "b" ] in
        add_row t [ "1"; "2" ];
        check_string "csv" "a,b\n1,2\n" (render_csv t));
    Alcotest.test_case "csv quoting" `Quick (fun () ->
        let t = create ~columns:[ "a" ] in
        add_row t [ "x,y" ];
        check_bool "quoted" true (contains (render_csv t) "\"x,y\""));
  ]

let () = Alcotest.run "util" [ ("table", table_tests) ]
