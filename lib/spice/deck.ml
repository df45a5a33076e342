type card =
  | Resistor of { name : string; n1 : string; n2 : string; value : float }
  | Capacitor of { name : string; n1 : string; n2 : string; value : float }
  | Line of { name : string; n1 : string; n2 : string; resistance : float; capacitance : float }
  | Source of { name : string; n1 : string; n2 : string }

type t = { title : string; cards : card list; outputs : string list }

let card_name = function
  | Resistor { name; _ } | Capacitor { name; _ } | Line { name; _ } | Source { name; _ } -> name

let is_ground n =
  String.equal n "0"
  || String.length n = 3
     && Char.lowercase_ascii n.[0] = 'g'
     && Char.lowercase_ascii n.[1] = 'n'
     && Char.lowercase_ascii n.[2] = 'd'

let make ?(title = "") ?(outputs = []) cards = { title; cards; outputs }

let equal_card (a : card) (b : card) = a = b

let equal a b =
  a.title = b.title && a.outputs = b.outputs
  && List.length a.cards = List.length b.cards
  && List.for_all2 equal_card a.cards b.cards

let pp_card fmt = function
  | Resistor { name; n1; n2; value } -> Format.fprintf fmt "R%s %s %s %.12g" name n1 n2 value
  | Capacitor { name; n1; n2; value } -> Format.fprintf fmt "C%s %s %s %.12g" name n1 n2 value
  | Line { name; n1; n2; resistance; capacitance } ->
      Format.fprintf fmt "U%s %s %s %.12g %.12g" name n1 n2 resistance capacitance
  | Source { name; n1; n2 } -> Format.fprintf fmt "V%s %s %s" name n1 n2

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  if t.title <> "" then Format.fprintf fmt "* %s@," t.title;
  List.iter (fun c -> Format.fprintf fmt "%a@," pp_card c) t.cards;
  List.iter (fun o -> Format.fprintf fmt ".output %s@," o) t.outputs;
  Format.fprintf fmt ".end@]"
