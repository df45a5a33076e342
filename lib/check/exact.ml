type t = {
  lambdas : float array; (* eigenvalues of C^{-1/2} G C^{-1/2}, ascending *)
  coeffs : Matrix.t; (* k_{ij}: row = matrix row of node, col = mode *)
  row_of_node : int array;
}

let of_tree ?cap_floor tree =
  let sys = Mna.of_tree ?cap_floor tree in
  let n = Vector.dim sys.c in
  let inv_sqrt_c = Array.map (fun c -> 1. /. sqrt c) sys.c in
  let a =
    Matrix.init n n (fun i j ->
        Matrix.get sys.g i j *. inv_sqrt_c.(i) *. inv_sqrt_c.(j))
  in
  let { Eigen.eigenvalues; eigenvectors; _ } = Eigen.symmetric a in
  (* v(t) = 1 - C^{-1/2} V exp(-Λ t) V^T C^{1/2} 1 ;
     k_{ij} = inv_sqrt_c_i * V_{ij} * (Σ_m V_{mj} sqrt(c_m)) *)
  let weights =
    Array.init n (fun j ->
        let acc = ref 0. in
        for m = 0 to n - 1 do
          acc := !acc +. (Matrix.get eigenvectors m j *. sqrt sys.c.(m))
        done;
        !acc)
  in
  let coeffs =
    Matrix.init n n (fun i j ->
        inv_sqrt_c.(i) *. Matrix.get eigenvectors i j *. weights.(j))
  in
  { lambdas = eigenvalues; coeffs; row_of_node = sys.row_of_node }

let poles r = Array.copy r.lambdas

let dominant_time_constant r =
  if Array.length r.lambdas = 0 then 0. else 1. /. r.lambdas.(0)

let row_of r node =
  if node < 0 || node >= Array.length r.row_of_node then
    invalid_arg "Exact: unknown node";
  r.row_of_node.(node)

let voltage r ~node t =
  if t < 0. then invalid_arg "Exact.voltage: negative time";
  let row = row_of r node in
  if row = -1 then 1. (* the driven input *)
  else begin
    let acc = ref 1. in
    for j = 0 to Array.length r.lambdas - 1 do
      acc := !acc -. (Matrix.get r.coeffs row j *. exp (-.r.lambdas.(j) *. t))
    done;
    !acc
  end

let sample r ~node ~times =
  Circuit.Waveform.create ~times ~values:(Array.map (voltage r ~node) times)

let delay r ~node ~threshold =
  if not (threshold >= 0. && threshold < 1.) then
    invalid_arg "Exact.delay: threshold must satisfy 0 <= v < 1";
  let row = row_of r node in
  if row = -1 then 0.
  else if voltage r ~node 0. >= threshold then 0.
  else begin
    let f t = voltage r ~node t -. threshold in
    let horizon = 10. *. dominant_time_constant r in
    let lo, hi = Numeric.Roots.expand_bracket f ~lo:0. ~hi:(Float.max horizon 1e-30) in
    Numeric.Roots.brent f ~lo ~hi ~tol:(1e-12 *. hi)
  end

let residues r ~node =
  let row = row_of r node in
  if row = -1 then None
  else
    Some
      (Array.init (Array.length r.lambdas) (fun j ->
           (Matrix.get r.coeffs row j, r.lambdas.(j))))

let transfer_moment r ~node j =
  if j < 0 then invalid_arg "Exact.transfer_moment: negative order";
  let row = row_of r node in
  if row = -1 then if j = 0 then 1. else 0.
  else begin
    let acc = ref 0. in
    for k = 0 to Array.length r.lambdas - 1 do
      acc := !acc +. (Matrix.get r.coeffs row k /. (r.lambdas.(k) ** float_of_int j))
    done;
    !acc
  end

let area_above_response r ~node =
  let row = row_of r node in
  if row = -1 then 0.
  else begin
    let acc = ref 0. in
    for j = 0 to Array.length r.lambdas - 1 do
      acc := !acc +. (Matrix.get r.coeffs row j /. r.lambdas.(j))
    done;
    !acc
  end

let elmore_by_area ?segments tree ~output =
  let lumped = Circuit.Measure.discretize_for_simulation ?segments tree in
  (* discretization keeps every original node's name *)
  let node = Option.get (Rctree.Tree.find_node lumped (Rctree.Tree.node_name tree output)) in
  area_above_response (of_tree lumped) ~node
