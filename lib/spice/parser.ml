type error = { line : int; column : int; message : string }

let error_to_string { line; column; message } =
  if column > 0 then Printf.sprintf "line %d, column %d: %s" line column message
  else Printf.sprintf "line %d: %s" line message

exception Parse_error of error

let fail ?(column = 0) line message = raise (Parse_error { line; column; message })

let blank c = c = ' ' || c = '\t'
let trimmed c = blank c || c = '\012' || c = '\n' || c = '\r'
let stop c = c = '\n' || c = ';' || c = '$'

(* in-place scans: where, from [i], the line, the code before a comment
   or the line end, the leading trim and a token end; [trim_end] drops
   the trailing trim *)
let rec eol text i e = if i < e && text.[i] <> '\n' then eol text (i + 1) e else i
let rec code_end text i e = if i < e && not (stop text.[i]) then code_end text (i + 1) e else i
let rec trim_start text i e = if i < e && trimmed text.[i] then trim_start text (i + 1) e else i
let rec trim_end text s e = if e > s && trimmed text.[e - 1] then trim_end text s (e - 1) else e
let rec token_end text i e = if i < e && not (blank text.[i]) then token_end text (i + 1) e else i

(* 1-based column of the first whole-token occurrence of [tok] in [line] *)
let column_of line tok =
  let ll = String.length line and tl = String.length tok in
  let edge i = i < 0 || i >= ll || blank line.[i] in
  let rec scan i =
    if i + tl > ll then 0
    else if String.sub line i tl = tok && edge (i - 1) && edge (i + tl) then i + 1
    else scan (i + 1)
  in
  scan 0

(* the tokens of [text.[i .. e - 1]] *)
let rec split text i e =
  if i >= e then []
  else
    let j = token_end text i e in
    if j > i then String.sub text i (j - i) :: split text (j + 1) e else split text (j + 1) e

(* a token to blame, and the message; the caller places the token *)
exception Blame of string * string

let blame tok fmt = Printf.ksprintf (fun message -> raise (Blame (tok, message))) fmt

let value what s =
  match Rctree.Units.parse_si s with
  | Some v when Float.is_finite v -> v
  | Some _ | None -> blame s "bad %s value %S" what s

(* "R1" -> "1"; the lowercase letter when the token is just the letter *)
let elem_name prefix head =
  if String.length head > 1 then String.sub head 1 (String.length head - 1) else prefix

let parse_card n = function
  | [] -> fail n "empty card"
  | head :: args -> (
      match (Char.lowercase_ascii head.[0], args) with
      | 'r', [ n1; n2; v ] ->
          `Card (Deck.Resistor { name = elem_name "r" head; n1; n2; value = value "resistance" v })
      | 'c', [ n1; n2; v ] ->
          let value = value "capacitance" v in
          `Card (Deck.Capacitor { name = elem_name "c" head; n1; n2; value })
      | 'u', [ n1; n2; r; c ] ->
          (* the capacitance is read, and so blamed, first *)
          let capacitance = value "capacitance" c in
          let resistance = value "resistance" r in
          `Card (Deck.Line { name = elem_name "u" head; n1; n2; resistance; capacitance })
      | 'v', n1 :: n2 :: _ -> `Card (Deck.Source { name = elem_name "v" head; n1; n2 })
      | ('r' | 'c' | 'u' | 'v'), _ -> blame head "wrong argument count for %S" head
      | '.', _ -> (
          match (String.lowercase_ascii head, args) with
          | ".end", _ -> `End
          | ".title", words -> `Title (String.concat " " words)
          | ".output", (_ :: _ as nodes) -> `Outputs nodes
          | ".output", [] -> fail n ".output needs at least one node"
          | ".include", [ p ] ->
              (* strip optional quotes *)
              let l = String.length p in
              let quoted = l >= 2 && p.[0] = '"' && p.[l - 1] = '"' in
              `Include (if quoted then String.sub p 1 (l - 2) else p)
          | ".include", _ -> fail n ".include needs exactly one path"
          | d, _ -> blame head "unknown directive %S" d)
      | _, _ -> blame head "unknown card %S" head)

(* One scan over the bytes: per physical line, cut the ';'/'$' comment,
   trim, skip blank and '*' lines, split tokens, join '+' continuations
   (one space in place of the '+'), and make each logical line's card
   from its tokens.  SPICE tradition: a first line that is not a card is
   the title.  [resolve] turns an .include path into a sub-deck. *)
let parse_text ?resolve text =
  let len = String.length text in
  let cards = ref [] and outputs = ref [] and title = ref "" and ended = ref false in
  (* the pending logical line: its first line number (0 for none), its
     tokens, and its physical pieces newest first *)
  let start = ref 0 and tokens = ref [] and pieces = ref [] and first = ref true in
  let logical () =
    String.concat " " (List.rev_map (fun (s, e) -> String.sub text s (e - s)) !pieces)
  in
  let finish () =
    let n = !start and tokens = !tokens in
    let card =
      try if !ended then fail n "content after .end" else parse_card n tokens with
      | (Blame _ | Parse_error _) when !first -> `Title (logical ())
      | Blame (tok, message) -> fail ~column:(column_of (logical ()) tok) n message
    in
    first := false;
    match card with
    | `Card c -> cards := c :: !cards
    | `Title t -> title := t
    | `Outputs ns -> outputs := List.rev_append ns !outputs
    | `End -> ended := true
    | `Include path -> (
        match Option.map (fun f -> f path) resolve with
        | None -> fail n ".include needs a base directory (use parse_file)"
        | Some (Ok (sub : Deck.t)) ->
            cards := List.rev_append sub.Deck.cards !cards;
            outputs := List.rev_append sub.Deck.outputs !outputs
        | Some (Error e) ->
            fail n (Printf.sprintf "in included file %S, %s" path (error_to_string e)))
  in
  let pos = ref 0 and line = ref 0 in
  while !pos <= len do
    incr line;
    let code = code_end text !pos len in
    let e = if code < len && text.[code] <> '\n' then eol text code len else code in
    let s = trim_start text !pos code in
    let t = trim_end text s code in
    if s < t && text.[s] = '+' then begin
      if !start = 0 then fail !line "continuation line with nothing to continue";
      tokens := !tokens @ split text (s + 1) t;
      pieces := (s + 1, t) :: !pieces
    end
    else if s < t && text.[s] <> '*' then begin
      if !start > 0 then finish ();
      start := !line;
      tokens := split text s t;
      pieces := [ (s, t) ]
    end;
    pos := e + 1
  done;
  if !start > 0 then finish ();
  Deck.make ~title:!title ~outputs:(List.rev !outputs) (List.rev !cards)

let m_decks = Obs.Counter.make "spice.decks_parsed"
let m_errors = Obs.Counter.make "spice.parse_errors"
let m_cards = Obs.Histogram.make "spice.cards_per_deck"

let record_parse read =
  match read () with
  | deck ->
      Obs.Counter.incr m_decks;
      Obs.Histogram.observe m_cards (float_of_int (List.length deck.Deck.cards));
      Ok deck
  | exception Parse_error e ->
      Obs.Counter.incr m_errors;
      Error e

let parse_string s =
  Obs.Span.with_ ~name:"spice.parse" @@ fun () -> record_parse (fun () -> parse_text s)

let parse_file ?(max_include_depth = 16) path =
  Obs.Span.with_ ~name:"spice.parse" @@ fun () ->
  let rec go depth path =
    if depth < 0 then Error { line = 0; column = 0; message = "includes nested too deeply" }
    else
      let dir = Filename.dirname path in
      let resolve sub =
        let sub_path = if Filename.is_relative sub then Filename.concat dir sub else sub in
        if Sys.file_exists sub_path then go (depth - 1) sub_path
        else Error { line = 0; column = 0; message = "file not found" }
      in
      record_parse (fun () ->
          parse_text ~resolve (In_channel.with_open_bin path In_channel.input_all))
  in
  go max_include_depth path
