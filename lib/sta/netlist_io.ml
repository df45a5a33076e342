type error = { line : int; message : string }

let error_to_string { line; message } = Printf.sprintf "line %d: %s" line message

exception Err of error

let fail line message = raise (Err { line; message })

(* The reader works on byte ranges [text.[a .. b - 1]] of the whole
   text and cuts a string out only for a name or a number it keeps, or
   for an error message. *)
let sub text a b = String.sub text a (b - a)

let rec same text a word k = k = String.length word || (text.[a + k] = word.[k] && same text a word (k + 1))
let is text a b word = b - a = String.length word && same text a word 0

let has text c a b = Rctree.Scan.index text c a b < b

let parse_value line what text a b =
  let s = sub text a b in
  match Rctree.Units.parse_si s with
  | Some v when Float.is_finite v && v >= 0. -> v
  | Some _ | None -> fail line (Printf.sprintf "bad %s value %S" what s)

(* "R,C" or "R:C" after [a], separated by [sep]: the C is read, and so
   blamed, first *)
let two line what text sep a b k =
  let i = Rctree.Scan.index text sep a b in
  if i = b || has text sep (i + 1) b then None
  else
    let c = parse_value line (what ^ " capacitance") text (i + 1) b in
    Some (k (parse_value line (what ^ " resistance") text a i) c)

let parse_pin line text a b =
  let i = Rctree.Scan.index text '/' a b in
  if i = a || i >= b - 1 || has text '/' (i + 1) b then
    fail line (Printf.sprintf "bad pin %S (expected instance/pin)" (sub text a b));
  { Design.instance = sub text a i; pin = sub text (i + 1) b }

(* comma-separated; an all-blank list is empty *)
let parse_pins line text a b =
  let rec from a =
    let i = Rctree.Scan.index text ',' a b in
    let pin = parse_pin line text a i in
    pin :: (if i < b then from (i + 1) else [])
  in
  if Rctree.Scan.trim_start text a b = b then [] else from a

let wire_pair line what text a b k =
  match two line what text ',' a b k with
  | Some w -> w
  | None -> fail line (Printf.sprintf "wire %s needs R,C" what)

let parse_wire line text a b =
  let i = Rctree.Scan.index text ':' a b in
  if i = b then
    if is text a b "direct" then Design.Direct
    else fail line (Printf.sprintf "unknown wire shape %S" (sub text a b))
  else if is text a i "lumped" then Design.Lumped (parse_value line "lumped capacitance" text (i + 1) b)
  else if is text a i "line" then
    wire_pair line "line" text (i + 1) b (fun resistance capacitance ->
        Design.Line { resistance; capacitance })
  else if is text a i "star" then
    wire_pair line "star" text (i + 1) b (fun resistance capacitance ->
        Design.Star { resistance; capacitance })
  else if is text a i "daisy" then
    wire_pair line "daisy" text (i + 1) b (fun resistance capacitance ->
        Design.Daisy { resistance; capacitance })
  else fail line (Printf.sprintf "unknown wire shape %S" (sub text a i))

let parse_drive line text a b =
  let driver on_resistance output_capacitance =
    try Tech.Mosfet.driver ~name:"input" ~on_resistance ~output_capacitance ()
    with Invalid_argument m -> fail line m
  in
  match two line "drive" text ':' a b driver with
  | Some drv -> drv
  | None -> fail line (Printf.sprintf "bad drive spec %S (expected R:C)" (sub text a b))

let keys = [| "drive"; "driver"; "loads"; "wire" |]

(* an input or net declaration: [net] at [a1 .. b1 - 1], key=value
   tokens from [a2] *)
let parse_net design line text ~input a1 b1 a2 e =
  let open Rctree.Scan in
  (* the first value range of each key, every token checked for '=' first *)
  let found = Array.make 8 (-1) in
  let i = ref a2 in
  while !i < e do
    let b = token_end text !i e in
    let eq = index text '=' !i b in
    if eq = b then fail line (Printf.sprintf "expected key=value, got %S" (sub text !i b));
    for k = 0 to Array.length keys - 1 do
      if found.(2 * k) < 0 && is text !i eq keys.(k) then begin
        found.(2 * k) <- eq + 1;
        found.((2 * k) + 1) <- b
      end
    done;
    i := skip_blank text b e
  done;
  let driver =
    if input then
      Design.Primary
        (if found.(0) < 0 then Tech.Mosfet.paper_superbuffer
         else parse_drive line text found.(0) found.(1))
    else if found.(2) < 0 then fail line "net needs driver=instance/pin"
    else Design.Cell_output (parse_pin line text found.(2) found.(3))
  in
  let loads =
    if found.(4) >= 0 then parse_pins line text found.(4) found.(5)
    else if input then fail line "input needs loads=..."
    else fail line "net needs loads=... (possibly empty)"
  in
  let wire = if found.(6) < 0 then Design.Direct else parse_wire line text found.(6) found.(7) in
  try Design.add_net design ~wire ~driver ~loads (sub text a1 b1)
  with Invalid_argument m -> fail line m

(* one declaration, [text.[a .. e - 1]] with any comment cut *)
let parse_line design line text a e =
  let open Rctree.Scan in
  let t0 = skip_blank text a e in
  let t1 = token_end text t0 e in
  let a1 = skip_blank text t1 e in
  let b1 = token_end text a1 e in
  let a2 = skip_blank text b1 e in
  let b2 = token_end text a2 e in
  if t0 = e || is text t0 t1 "design" then ()
  else if is text t0 t1 "cell" && a2 < e && skip_blank text b2 e = e then
    try Design.add_instance design ~cell:(sub text a1 b1) (sub text a2 b2)
    with Invalid_argument m -> fail line m
  else if a1 < e && (is text t0 t1 "input" || is text t0 t1 "net") then
    parse_net design line text ~input:(is text t0 t1 "input") a1 b1 a2 e
  else if is text t0 t1 "output" && a1 < e && a2 = e then
    try Design.mark_primary_output design (sub text a1 b1) with Invalid_argument m -> fail line m
  else fail line (Printf.sprintf "unknown declaration %S" (sub text t0 t1))

let parse_string lib text =
  Obs.Span.with_ ~name:"sta.parse" @@ fun () ->
  let design = Design.create lib in
  let len = String.length text in
  (* the code of a line ends at a '#' or at the newline *)
  let rec code_end i = if i < len && text.[i] <> '\n' && text.[i] <> '#' then code_end (i + 1) else i in
  let rec lines pos lineno =
    if pos <= len then begin
      let c = code_end pos in
      parse_line design lineno text pos c;
      lines (Rctree.Scan.eol text c len + 1) (lineno + 1)
    end
  in
  match lines 0 1 with () -> Ok design | exception Err e -> Error e

let parse_file lib path = parse_string lib (In_channel.with_open_bin path In_channel.input_all)

let fmt_value v = Rctree.Units.format_si ~digits:9 v

let wire_spec = function
  | Design.Direct -> "direct"
  | Design.Lumped c -> Printf.sprintf "lumped:%s" (fmt_value c)
  | Design.Line { resistance; capacitance } ->
      Printf.sprintf "line:%s,%s" (fmt_value resistance) (fmt_value capacitance)
  | Design.Star { resistance; capacitance } ->
      Printf.sprintf "star:%s,%s" (fmt_value resistance) (fmt_value capacitance)
  | Design.Daisy { resistance; capacitance } ->
      Printf.sprintf "daisy:%s,%s" (fmt_value resistance) (fmt_value capacitance)

let pins_spec loads =
  String.concat "," (List.map (fun { Design.instance; pin } -> instance ^ "/" ^ pin) loads)

let to_string d =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, cell) ->
      Buffer.add_string buf (Printf.sprintf "cell %s %s\n" cell.Celllib.cell_name name))
    (Design.instances d);
  List.iter
    (fun (net : Design.net) ->
      match net.Design.driver with
      | Design.Primary drv ->
          Buffer.add_string buf
            (Printf.sprintf "input %s drive=%s:%s wire=%s loads=%s\n" net.Design.net_name
               (fmt_value drv.Tech.Mosfet.on_resistance)
               (fmt_value drv.Tech.Mosfet.output_capacitance)
               (wire_spec net.Design.wire) (pins_spec net.Design.loads))
      | Design.Cell_output pin ->
          Buffer.add_string buf
            (Printf.sprintf "net %s driver=%s/%s wire=%s loads=%s\n" net.Design.net_name
               pin.Design.instance pin.Design.pin (wire_spec net.Design.wire)
               (pins_spec net.Design.loads)))
    (Design.nets d);
  List.iter (fun po -> Buffer.add_string buf (Printf.sprintf "output %s\n" po)) (Design.primary_outputs d);
  Buffer.contents buf

let write_file path d =
  let oc = open_out path in
  output_string oc (to_string d);
  close_out oc
