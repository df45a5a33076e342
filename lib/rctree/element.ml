type t =
  | Resistor of float
  | Capacitor of float
  | Line of { resistance : float; capacitance : float }

let check name x = if x < 0. || not (Float.is_finite x) then invalid_arg ("Element." ^ name ^ ": value must be finite and non-negative")

let resistor r =
  check "resistor" r;
  Resistor r

let capacitor c =
  check "capacitor" c;
  Capacitor c

let line ~resistance ~capacitance =
  check "line" resistance;
  check "line" capacitance;
  if capacitance = 0. then Resistor resistance
  else if resistance = 0. then Capacitor capacitance
  else Line { resistance; capacitance }

let resistance = function
  | Resistor r -> r
  | Capacitor _ -> 0.
  | Line { resistance; _ } -> resistance

let capacitance = function
  | Resistor _ -> 0.
  | Capacitor c -> c
  | Line { capacitance; _ } -> capacitance

let is_distributed = function Line _ -> true | Resistor _ | Capacitor _ -> false

let equal a b =
  match (a, b) with
  | Resistor x, Resistor y -> x = y
  | Capacitor x, Capacitor y -> x = y
  | Line a, Line b -> a.resistance = b.resistance && a.capacitance = b.capacitance
  | (Resistor _ | Capacitor _ | Line _), _ -> false

let pp fmt = function
  | Resistor r -> Format.fprintf fmt "R(%s)" (Units.format_si r)
  | Capacitor c -> Format.fprintf fmt "C(%s)" (Units.format_si c)
  | Line { resistance; capacitance } ->
      Format.fprintf fmt "URC(%s,%s)" (Units.format_si resistance) (Units.format_si capacitance)
