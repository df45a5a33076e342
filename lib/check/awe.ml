type model = { poles : float array; residues : float array }

let order m = Array.length m.poles

(* signed moments mu_k = (-1)^k m_k, so that H(s) = sum mu_k s^k *)
let signed_moments tree ~output ~count =
  let m = Rctree.Higher_moments.output_moments tree ~output ~order:(count - 1) in
  Array.mapi (fun k v -> if k mod 2 = 0 then v else -.v) m

let reduce tree ~output ~order:q =
  if q < 1 then invalid_arg "Awe.reduce: order must be >= 1";
  let mu = signed_moments tree ~output ~count:(2 * q) in
  if mu.(1) = 0. then None (* degenerate output: no dynamics to model *)
  else begin
    (* Hankel system for the Pade denominator 1 + b1 s + ... + bq s^q:
       sum_{i=1..q} b_i mu_{k-i} = -mu_k  for k = q .. 2q-1 *)
    let a = Matrix.init q q (fun row i -> mu.(q + row - (i + 1))) in
    let rhs = Array.init q (fun row -> -.mu.(q + row)) in
    match Lu.solve a rhs with
    | exception Lu.Singular _ -> None
    | b ->
        (* D(s) coefficients, low power first *)
        let denom = Array.init (q + 1) (fun i -> if i = 0 then 1. else b.(i - 1)) in
        let roots = Polynomial.real_roots denom in
        if Array.length roots <> q || Array.exists (fun p -> p >= 0. || not (Float.is_finite p)) roots
        then None
        else begin
          (* residues from mu_k = sum_j r_j p_j^{-k}, k = 0..q-1 *)
          let v = Matrix.init q q (fun k j -> roots.(j) ** float_of_int (-k)) in
          match Lu.solve v (Array.sub mu 0 q) with
          | exception Lu.Singular _ -> None
          | residues ->
              (* physical sanity: residues sum to mu_0 = 1 and are not
                 orders of magnitude beyond it (the AWE instability
                 signature) *)
              let sum = Array.fold_left ( +. ) 0. residues in
              let magnitude = Array.fold_left (fun acc r -> acc +. Float.abs r) 0. residues in
              if Float.abs (sum -. 1.) > 1e-6 || magnitude > 100. then None
              else Some { poles = roots; residues }
        end
  end

let rec best_effort tree ~output ~order =
  if order <= 1 then begin
    let elmore = Rctree.Moments.elmore tree ~output in
    if elmore = 0. then { poles = [| -1e30 |]; residues = [| 1. |] }
    else { poles = [| -1. /. elmore |]; residues = [| 1. |] }
  end
  else
    match reduce tree ~output ~order with
    | Some m -> m
    | None -> best_effort tree ~output ~order:(order - 1)

let step_response m t =
  if t < 0. then invalid_arg "Awe.step_response: negative time";
  let acc = ref 1. in
  Array.iteri (fun j p -> acc := !acc -. (m.residues.(j) *. exp (p *. t))) m.poles;
  !acc

let delay m ~threshold =
  if not (threshold >= 0. && threshold < 1.) then
    invalid_arg "Awe.delay: threshold must satisfy 0 <= v < 1";
  let f t = step_response m t -. threshold in
  if f 0. >= 0. then 0.
  else begin
    let slowest = Array.fold_left (fun acc p -> Float.max acc (-1. /. p)) 0. m.poles in
    let lo, hi = Numeric.Roots.expand_bracket f ~lo:0. ~hi:(Float.max (10. *. slowest) 1e-30) in
    Numeric.Roots.brent f ~lo ~hi ~tol:(1e-12 *. Float.max 1. hi)
  end
