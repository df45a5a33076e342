let m_passes = Obs.Counter.make "response.passes"

type t = { tree : Rctree.Tree.t; t_p : float }

let set_conductance ~who tree g row =
  let r = (Rctree.Tree.flat tree).Rctree.Tree.resistance.(row + 1) in
  g.(row) <- 1. /. r;
  (* a non-finite 1/R would turn every answer into NaN *)
  if not (r > 0. && Float.is_finite g.(row)) then
    invalid_arg
      (Printf.sprintf "%s: node %S %s" who (Rctree.Tree.node_name tree (row + 1))
         (if r > 0. then "has a resistance too small for a finite 1/R"
          else "connects through zero resistance"))

let conductances ~who tree =
  let g = Array.make (Rctree.Tree.node_count tree - 1) 0. in
  for row = 0 to Array.length g - 1 do
    set_conductance ~who tree g row
  done;
  g

let make tree =
  if Rctree.Tree.has_distributed_lines tree then
    invalid_arg "Response.make: discretize distributed lines first (Rctree.Lump.discretize)";
  ignore (conductances ~who:"Response.make" tree);
  let t_p, _, _ = Rctree.Moments.all_sums tree in
  { tree; t_p }

let t_p r = r.t_p

(* One pass at s = sr + i si, allocating nothing.  Bottom-up (ids are
   parent-first), [hr]/[hi] accumulate Y_k = s C_k + sum_c Y_c q_c with
   the divider q_c = 1 / (1 + R_c Y_c) in [qr]/[qi]; top-down, they
   then take H_c = H_p q_c from H_input = 1. *)
let pass r ~sr ~si ~hr ~hi ~qr ~qi =
  Obs.Counter.incr m_passes;
  let { Rctree.Tree.parents; resistance; capacitance } = Rctree.Tree.flat r.tree in
  let n = Array.length parents in
  for id = 0 to n - 1 do
    hr.(id) <- sr *. capacitance.(id);
    hi.(id) <- si *. capacitance.(id)
  done;
  for id = n - 1 downto 1 do
    let rk = resistance.(id) and yr = hr.(id) and yi = hi.(id) and p = parents.(id) in
    let dr = 1. +. (rk *. yr) and di = rk *. yi in
    (* 1/D with D scaled by its larger part, so |D|^2 cannot overflow *)
    let m = Float.max (Float.abs dr) (Float.abs di) in
    if m < Float.infinity then begin
      let ur = dr /. m and ui = di /. m in
      let den = m *. ((ur *. ur) +. (ui *. ui)) in
      qr.(id) <- ur /. den;
      qi.(id) <- -.ui /. den;
      hr.(p) <- hr.(p) +. ((yr *. qr.(id)) -. (yi *. qi.(id)));
      hi.(p) <- hi.(p) +. ((yr *. qi.(id)) +. (yi *. qr.(id)))
    end
    else begin
      (* s C overflowed: an open divider, passing its limit 1/R up *)
      qr.(id) <- 0.;
      qi.(id) <- 0.;
      hr.(p) <- hr.(p) +. (1. /. rk)
    end
  done;
  hr.(0) <- 1.;
  hi.(0) <- 0.;
  for id = 1 to n - 1 do
    let pr = hr.(parents.(id)) and pi = hi.(parents.(id)) in
    hr.(id) <- (pr *. qr.(id)) -. (pi *. qi.(id));
    hi.(id) <- (pr *. qi.(id)) +. (pi *. qr.(id))
  done

let buffer r = Array.create_float (Rctree.Tree.node_count r.tree)

let check_node r node =
  if node < 0 || node >= Rctree.Tree.node_count r.tree then invalid_arg "Response: unknown node"

let transfer r ~node (s : Complex.t) =
  check_node r node;
  let hr = buffer r and hi = buffer r in
  pass r ~sr:s.re ~si:s.im ~hr ~hi ~qr:(buffer r) ~qi:(buffer r);
  { Complex.re = hr.(node); im = hi.(node) }

(* v(t) = (1/2 pi i) int e^(st) H(s)/s ds by the midpoint rule on
   s(theta) = (N/t)(0.1309 - 0.1194 theta^2 + 0.25 i theta), N = 32: by
   conjugate symmetry Re sum_j w_j H(z_j / t) over the 16 theta_j > 0,
   z_j = t s(theta_j), w_j = (2/N) e^(z_j) z'_j / (i z_j). *)
let contour =
  let n = 32. in
  Array.init 16 (fun j ->
      let theta = (float_of_int j +. 0.5) *. 2. *. Float.pi /. n in
      let z = { Complex.re = n *. (0.1309 -. (0.1194 *. theta *. theta)); im = n *. 0.25 *. theta } in
      let dz = { Complex.re = n *. -0.2388 *. theta; im = n *. 0.25 } in
      (z, Complex.div (Complex.mul (Complex.exp z) dz) (Complex.mul { re = 0.; im = n /. 2. } z)))

let step r ~nodes ~times =
  Array.iter (check_node r) nodes;
  Array.iter (fun t -> if not (t >= 0.) then invalid_arg "Response.step: time not >= 0") times;
  Obs.Span.with_ ~name:"circuit.response" @@ fun () ->
  let hr = buffer r and hi = buffer r and qr = buffer r and qi = buffer r in
  let input = Rctree.Tree.input r.tree in
  (* v(0) = 0, and the input is the source: 1 from t = 0 on *)
  let out =
    Array.map (fun node -> Array.make (Array.length times) (if node = input then 1. else 0.)) nodes
  in
  Array.iteri
    (fun k t ->
      if t > 0. then
        Array.iter
          (fun ((z : Complex.t), (w : Complex.t)) ->
            pass r ~sr:(z.re /. t) ~si:(z.im /. t) ~hr ~hi ~qr ~qi;
            Array.iteri
              (fun j node ->
                if node <> input then
                  out.(j).(k) <- out.(j).(k) +. ((w.re *. hr.(node)) -. (w.im *. hi.(node))))
              nodes)
          contour)
    times;
  out
