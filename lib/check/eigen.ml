
type decomposition = { eigenvalues : Vector.t; eigenvectors : Matrix.t; sweeps : int }

let m_decompositions = Obs.Counter.make "eigen.decompositions"
let m_sweeps = Obs.Histogram.make "eigen.sweeps_per_call"
let m_off_norm = Obs.Gauge.make "eigen.last_off_diagonal"

(* Cyclic Jacobi: repeatedly zero each off-diagonal entry with a Givens
   rotation.  Convergence is judged pairwise — |a_pq| negligible
   relative to sqrt(|a_pp a_qq|) — rather than against the global
   diagonal mass, so badly scaled matrices (eigenvalues spanning many
   orders of magnitude, as produced by capacitance-floored circuit
   matrices) still resolve their small eigenvalues correctly. *)
let symmetric ?(max_sweeps = 64) ?(tol = 1e-14) m =
  let n = Matrix.rows m in
  if Matrix.cols m <> n then invalid_arg "Eigen.symmetric: matrix not square";
  let a =
    Array.init n (fun i ->
        Array.init n (fun j -> if j >= i then Matrix.get m i j else Matrix.get m j i))
  in
  let v = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1. else 0.)) in
  let get i j = if j >= i then a.(i).(j) else a.(j).(i) in
  let pair_negligible p q =
    let apq = Float.abs (get p q) in
    apq = 0.
    || apq <= tol *. sqrt (Float.abs (a.(p).(p) *. a.(q).(q)))
    || apq <= tol *. 1e-30 (* both diagonals essentially zero *)
  in
  let converged () =
    let ok = ref true in
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        if not (pair_negligible p q) then ok := false
      done
    done;
    !ok
  in
  let rotate p q =
    let apq = a.(p).(q) in
    if Float.abs apq > 0. then begin
      let theta = (a.(q).(q) -. a.(p).(p)) /. (2. *. apq) in
      let t =
        let sign = if theta >= 0. then 1. else -1. in
        (* for very large |theta| the textbook formula underflows; the
           limit 1/(2 theta) is exact to double precision there *)
        if Float.abs theta > 1e150 then 1. /. (2. *. theta)
        else sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.))
      in
      let c = 1. /. sqrt ((t *. t) +. 1.) in
      let s = t *. c in
      let tau = s /. (1. +. c) in
      let app = a.(p).(p) and aqq = a.(q).(q) in
      a.(p).(p) <- app -. (t *. apq);
      a.(q).(q) <- aqq +. (t *. apq);
      a.(p).(q) <- 0.;
      let update_pair getp setp getq setq =
        let xp = getp () and xq = getq () in
        setp (xp -. (s *. (xq +. (tau *. xp))));
        setq (xq +. (s *. (xp -. (tau *. xq))))
      in
      for i = 0 to n - 1 do
        if i <> p && i <> q then begin
          (* keep only the upper triangle of [a] consistent *)
          let getp, setp =
            if i < p then ((fun () -> a.(i).(p)), fun x -> a.(i).(p) <- x)
            else ((fun () -> a.(p).(i)), fun x -> a.(p).(i) <- x)
          in
          let getq, setq =
            if i < q then ((fun () -> a.(i).(q)), fun x -> a.(i).(q) <- x)
            else ((fun () -> a.(q).(i)), fun x -> a.(q).(i) <- x)
          in
          update_pair getp setp getq setq
        end
      done;
      for i = 0 to n - 1 do
        update_pair
          (fun () -> v.(i).(p))
          (fun x -> v.(i).(p) <- x)
          (fun () -> v.(i).(q))
          (fun x -> v.(i).(q) <- x)
      done
    end
  in
  let rec sweep k =
    if converged () then k
    else if k >= max_sweeps then failwith "Eigen.symmetric: did not converge"
    else begin
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          if not (pair_negligible p q) then rotate p q
        done
      done;
      sweep (k + 1)
    end
  in
  let sweeps = sweep 0 in
  Obs.Counter.incr m_decompositions;
  Obs.Histogram.observe m_sweeps (float_of_int sweeps);
  if Obs.enabled () then begin
    let off = ref 0. in
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        off := !off +. (get p q *. get p q)
      done
    done;
    Obs.Gauge.set m_off_norm (sqrt (2. *. !off))
  end;
  (* sort ascending by eigenvalue, permuting eigenvector columns *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare a.(i).(i) a.(j).(j)) order;
  let eigenvalues = Array.map (fun i -> a.(i).(i)) order in
  let eigenvectors = Matrix.init n n (fun i j -> v.(i).(order.(j))) in
  { eigenvalues; eigenvectors; sweeps }

let reconstruct d =
  let n = Vector.dim d.eigenvalues in
  let scaled = Matrix.init n n (fun i j -> Matrix.get d.eigenvectors i j *. d.eigenvalues.(j)) in
  Matrix.mul scaled (Matrix.transpose d.eigenvectors)
