type error = { line : int; message : string }

let error_to_string { line; message } = Printf.sprintf "line %d: %s" line message

exception Err of error

let fail line message = raise (Err { line; message })

let parse_value line what s =
  match Rctree.Units.parse_si s with
  | Some v when Float.is_finite v && v >= 0. -> v
  | Some _ | None -> fail line (Printf.sprintf "bad %s value %S" what s)

let parse_pin line s =
  match String.split_on_char '/' s with
  | [ instance; pin ] when instance <> "" && pin <> "" -> { Design.instance; pin }
  | _ -> fail line (Printf.sprintf "bad pin %S (expected instance/pin)" s)

let parse_pins line s =
  if String.trim s = "" then []
  else List.map (parse_pin line) (String.split_on_char ',' s)

let parse_wire line s =
  let two what rest k =
    match String.split_on_char ',' rest with
    | [ a; b ] -> k (parse_value line (what ^ " resistance") a) (parse_value line (what ^ " capacitance") b)
    | _ -> fail line (Printf.sprintf "wire %s needs R,C" what)
  in
  match String.index_opt s ':' with
  | None when s = "direct" -> Design.Direct
  | None -> fail line (Printf.sprintf "unknown wire shape %S" s)
  | Some i -> (
      let kind = String.sub s 0 i and rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "lumped" -> Design.Lumped (parse_value line "lumped capacitance" rest)
      | "line" -> two "line" rest (fun resistance capacitance -> Design.Line { resistance; capacitance })
      | "star" -> two "star" rest (fun resistance capacitance -> Design.Star { resistance; capacitance })
      | "daisy" -> two "daisy" rest (fun resistance capacitance -> Design.Daisy { resistance; capacitance })
      | _ -> fail line (Printf.sprintf "unknown wire shape %S" kind))

let parse_drive line s =
  match String.split_on_char ':' s with
  | [ r; c ] -> (
      try
        Tech.Mosfet.driver ~name:"input"
          ~on_resistance:(parse_value line "drive resistance" r)
          ~output_capacitance:(parse_value line "drive capacitance" c)
          ()
      with Invalid_argument m -> fail line m)
  | _ -> fail line (Printf.sprintf "bad drive spec %S (expected R:C)" s)

(* split "key=value" tokens into an association list *)
let keyed_args line tokens =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> fail line (Printf.sprintf "expected key=value, got %S" tok))
    tokens

let tokens line =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
  |> List.filter (fun t -> t <> "")

let parse_lines lib lines =
  let design = Design.create lib in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let raw = match String.index_opt raw '#' with Some i -> String.sub raw 0 i | None -> raw in
      match tokens raw with
      | [] -> ()
      | "design" :: _ -> () (* decorative *)
      | [ "cell"; cell; name ] -> (
          try Design.add_instance design ~cell name
          with Invalid_argument m -> fail lineno m)
      | "input" :: net :: rest -> (
          let args = keyed_args lineno rest in
          let drive =
            match List.assoc_opt "drive" args with
            | Some s -> parse_drive lineno s
            | None -> Tech.Mosfet.paper_superbuffer
          in
          let loads =
            match List.assoc_opt "loads" args with
            | Some s -> parse_pins lineno s
            | None -> fail lineno "input needs loads=..."
          in
          let wire =
            match List.assoc_opt "wire" args with
            | Some s -> parse_wire lineno s
            | None -> Design.Direct
          in
          try Design.add_net design ~wire ~driver:(Design.Primary drive) ~loads net
          with Invalid_argument m -> fail lineno m)
      | "net" :: net :: rest -> (
          let args = keyed_args lineno rest in
          let driver =
            match List.assoc_opt "driver" args with
            | Some s -> Design.Cell_output (parse_pin lineno s)
            | None -> fail lineno "net needs driver=instance/pin"
          in
          let loads =
            match List.assoc_opt "loads" args with
            | Some s -> parse_pins lineno s
            | None -> fail lineno "net needs loads=... (possibly empty)"
          in
          let wire =
            match List.assoc_opt "wire" args with
            | Some s -> parse_wire lineno s
            | None -> Design.Direct
          in
          try Design.add_net design ~wire ~driver ~loads net
          with Invalid_argument m -> fail lineno m)
      | [ "output"; net ] -> (
          try Design.mark_primary_output design net with Invalid_argument m -> fail lineno m)
      | word :: _ -> fail lineno (Printf.sprintf "unknown declaration %S" word))
    lines;
  design

let parse_string lib text =
  Obs.Span.with_ ~name:"sta.parse" @@ fun () ->
  match parse_lines lib (String.split_on_char '\n' text) with
  | design -> Ok design
  | exception Err e -> Error e

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
