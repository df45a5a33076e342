let prefixes =
  [
    (1e-15, "f"); (1e-12, "p"); (1e-9, "n"); (1e-6, "u"); (1e-3, "m");
    (1., ""); (1e3, "k"); (1e6, "M"); (1e9, "G"); (1e12, "T");
  ]

let format_si ?(digits = 4) x =
  if x = 0. then "0"
  else if not (Float.is_finite x) then Printf.sprintf "%f" x
  else begin
    let mag = Float.abs x in
    let scale, prefix =
      let rec pick = function
        | [] -> (1., "")
        | [ (s, p) ] -> (s, p)
        | (s, p) :: rest ->
            (* choose the largest prefix not exceeding the magnitude,
               so that the mantissa lands in [1, 1000) *)
            if mag < s *. 1000. then (s, p) else pick rest
      in
      if mag < 1e-15 then (1., "") else pick prefixes
    in
    let mantissa = x /. scale in
    let s = Printf.sprintf "%.*g" digits mantissa in
    s ^ prefix
  end

let format_quantity ?digits ~unit_symbol x = format_si ?digits x ^ unit_symbol

(* the scale of the suffix [s.[i .. n - 1]]: "meg" beats "m", uppercase
   "M" is SI mega while lowercase "m" stays SPICE milli, and any other
   letters after a prefix, or a bare unit like "V", are ignored *)
let suffix_scale s i n =
  let lower k = Char.lowercase_ascii s.[k] in
  if n - i >= 3 && lower i = 'm' && lower (i + 1) = 'e' && lower (i + 2) = 'g' then 1e6
  else if s.[i] = 'M' then 1e6
  else
    match lower i with
    | 'f' -> 1e-15
    | 'p' -> 1e-12
    | 'n' -> 1e-9
    | 'u' -> 1e-6
    | 'm' -> 1e-3
    | 'k' -> 1e3
    | 'g' -> 1e9
    | 't' -> 1e12
    | _ -> 1.

let exponent_follows s i n = i < n && match s.[i] with '0' .. '9' | '+' | '-' -> true | _ -> false

(* the end of the numeric prefix of [s.[i .. n - 1]]; 'e'/'E' counts
   only when a digit or sign follows *)
let rec num_end s i n =
  if i >= n then i
  else
    match s.[i] with
    | '0' .. '9' | '.' | '-' | '+' -> num_end s (i + 1) n
    | ('e' | 'E') when exponent_follows s (i + 1) n -> num_end s (i + 2) n
    | _ -> i

(* reads the trimmed token in place: the only allocation besides the
   result is the numeric prefix, when it is not the whole string *)
let parse_si s =
  let a = Scan.trim_start s 0 (String.length s) in
  let n = Scan.trim_end s a (String.length s) in
  let split = num_end s a n in
  if split = a then None
  else
    let whole = a = 0 && split = String.length s in
    let v = float_of_string_opt (if whole then s else String.sub s a (split - a)) in
    if split = n then v else Option.map (fun v -> v *. suffix_scale s split n) v

let ohms_per_square ~sheet ~squares =
  if sheet < 0. || squares < 0. then invalid_arg "Units.ohms_per_square: negative argument";
  sheet *. squares
