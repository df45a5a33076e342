type t = Response.t

let of_tree = Response.make

let response ac ~node omega =
  if omega < 0. then invalid_arg "Ac.response: negative frequency";
  let h = Response.transfer ac ~node { Complex.re = 0.; im = omega } in
  (Complex.norm h, Complex.arg h)

let magnitude ac ~node omega = fst (response ac ~node omega)
let dc_gain ac ~node = magnitude ac ~node 0.

let bandwidth_3db ac ~node =
  let target = 1. /. sqrt 2. in
  if magnitude ac ~node 0. <= target then 0.
  else begin
    (* scan up from two decades below 1/T_P: T_P = sum_j 1/lambda_j is
       at least the dominant time constant *)
    let t_p = Response.t_p ac in
    if not (Float.is_finite t_p) then
      invalid_arg (Printf.sprintf "Ac.bandwidth_3db: T_P = %g is not finite" t_p);
    if t_p <= 0. then Float.infinity
    else begin
      let f omega = magnitude ac ~node omega -. target in
      let start = 0.01 /. t_p in
      if f start <= 0. then
        (* already below target at the scan start: bracket downward *)
        Numeric.Roots.brent f ~lo:0. ~hi:start
      else begin
        match Numeric.Roots.expand_bracket f ~lo:start ~hi:(1. /. t_p) with
        | lo, hi -> Numeric.Roots.brent f ~lo ~hi
        | exception Numeric.Roots.No_bracket -> Float.infinity
      end
    end
  end

let bode_table ac ~node ~omegas =
  Array.map
    (fun omega ->
      let mag, phase = response ac ~node omega in
      (omega, 20. *. log10 (Float.max mag 1e-300), phase *. 180. /. Float.pi))
    omegas
