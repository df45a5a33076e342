type t = { ts : float array; vs : float array }

let create ~(times : float array) ~(values : float array) =
  let n = Array.length times in
  if n <> Array.length values then invalid_arg "Waveform.create: length mismatch";
  if n < 1 then invalid_arg "Waveform.create: need at least one sample";
  for i = 0 to n - 2 do
    if times.(i + 1) <= times.(i) then invalid_arg "Waveform.create: times not strictly increasing"
  done;
  { ts = Array.copy times; vs = Array.copy values }

let of_samples samples =
  let samples = Array.of_list samples in
  create ~times:(Array.map fst samples) ~values:(Array.map snd samples)

let length w = Array.length w.ts
let times w = Array.copy w.ts
let values w = Array.copy w.vs
let start_time w = w.ts.(0)
let end_time w = w.ts.(Array.length w.ts - 1)
(* [create] checked the times once, and a waveform is immutable *)
let value_at w t = Numeric.Interp.linear_unchecked ~xs:w.ts ~ys:w.vs t
let final_value w = w.vs.(Array.length w.vs - 1)
let crossing_time w ~threshold = Numeric.Interp.inverse_monotone ~xs:w.ts ~ys:w.vs threshold

let area_above w ~final =
  let above = Array.map (fun v -> final -. v) w.vs in
  Numeric.Interp.trapezoid ~xs:w.ts ~ys:above

let map_values f w = { ts = Array.copy w.ts; vs = Array.map f w.vs }

let resample w ~times =
  create ~times ~values:(Array.map (value_at w) times)

let pp fmt w =
  Format.fprintf fmt "@[<v>waveform (%d samples, t in [%g, %g])@]" (length w) (start_time w)
    (end_time w)
