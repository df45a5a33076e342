
type stats = { iterations : int; residual_norm : float }

exception Not_converged of stats

let m_solves = Obs.Counter.make "cg.solves"
let m_iterations = Obs.Counter.make "cg.iterations"
let m_preconditioned = Obs.Counter.make "cg.preconditioned"
let m_not_converged = Obs.Counter.make "cg.not_converged"
let m_iters_hist = Obs.Histogram.make "cg.iterations_per_solve"
let m_residual = Obs.Gauge.make "cg.last_residual"

let record_stats ~preconditioned stats =
  Obs.Counter.incr m_solves;
  Obs.Counter.add m_iterations stats.iterations;
  Obs.Histogram.observe m_iters_hist (float_of_int stats.iterations);
  Obs.Gauge.set m_residual stats.residual_norm;
  if preconditioned then Obs.Counter.incr m_preconditioned

let solve ?(tol = 1e-12) ?max_iter ?diag_precondition ~mul b =
  let n = Array.length b in
  let max_iter = match max_iter with Some m -> m | None -> Int.max 50 (10 * n) in
  let apply_precond =
    match diag_precondition with
    | None -> fun r -> Array.copy r
    | Some d ->
        Array.iter
          (fun x ->
            if x <= 0. then invalid_arg "Cg.solve: preconditioner entries must be positive")
          d;
        fun r -> Array.mapi (fun i ri -> ri /. d.(i)) r
  in
  let preconditioned = diag_precondition <> None in
  let b_norm = Vector.norm2 b in
  if b_norm = 0. then begin
    let stats = { iterations = 0; residual_norm = 0. } in
    record_stats ~preconditioned stats;
    (Array.make n 0., stats)
  end
  else begin
    let x = Array.make n 0. in
    let r = Array.copy b in
    let z = apply_precond r in
    let p = Array.copy z in
    let rz = ref (Vector.dot r z) in
    let iterations = ref 0 in
    let residual = ref (Vector.norm2 r /. b_norm) in
    while !residual > tol && !iterations < max_iter do
      incr iterations;
      let ap = mul p in
      let alpha = !rz /. Vector.dot p ap in
      Vector.axpy alpha p x;
      Vector.axpy (-.alpha) ap r;
      let z = apply_precond r in
      let rz' = Vector.dot r z in
      let beta = rz' /. !rz in
      rz := rz';
      for i = 0 to n - 1 do
        p.(i) <- z.(i) +. (beta *. p.(i))
      done;
      residual := Vector.norm2 r /. b_norm
    done;
    let stats = { iterations = !iterations; residual_norm = !residual } in
    record_stats ~preconditioned stats;
    if !residual > tol then begin
      Obs.Counter.incr m_not_converged;
      raise (Not_converged stats)
    end;
    (x, stats)
  end
