let m_factors = Obs.Counter.make "treesolve.factors"
let m_solves = Obs.Counter.make "treesolve.solves"
let m_solve_ns = Obs.Histogram.make "treesolve.solve_ns"

type t = {
  parent : int array; (* parent.(i) < i; -1 at a root of the forest *)
  l : float array; (* l.(i) = A.(i).(parent i) / D.(i), 0 at roots *)
  d : float array; (* the positive pivots, in elimination (reverse index) order *)
}

let fault : (int * float) option Atomic.t = Atomic.make None
let set_pivot_fault f = Atomic.set fault f
let pivot_fault () = Atomic.get fault

let size t = Array.length t.d

let check_parents who parent =
  for i = 0 to Array.length parent - 1 do
    if parent.(i) < -1 || parent.(i) >= i then
      invalid_arg (who ^ ": need -1 <= parent.(i) < i (parents before children)")
  done

(* the armed pivot fault, if any, then the count *)
let finish parent l d =
  let n = Array.length d in
  (match Atomic.get fault with
  | Some (i, s) when n > 0 ->
      let i = ((i mod n) + n) mod n in
      d.(i) <- d.(i) *. s
  | _ -> ());
  Obs.Counter.incr m_factors;
  { parent; l; d }

let factor ~parent ~diag ~offdiag =
  let n = Array.length parent in
  if Array.length diag <> n || Array.length offdiag <> n then
    invalid_arg "Tree_ldl.factor: parent/diag/offdiag lengths differ";
  check_parents "Tree_ldl.factor" parent;
  let d = Array.copy diag in
  let l = Array.make n 0. in
  (* leaf-to-root elimination: children carry larger indices, so by the
     time [i] is eliminated every child has already folded its Schur
     complement a²/D into d.(i) *)
  for i = n - 1 downto 0 do
    if d.(i) <= 0. then invalid_arg "Tree_ldl.factor: matrix is not positive definite";
    let p = parent.(i) in
    if p >= 0 then begin
      let a = offdiag.(i) in
      let li = a /. d.(i) in
      l.(i) <- li;
      d.(p) <- d.(p) -. (a *. li)
    end
  done;
  finish parent l d

let factor_grounded ~parent ~conductance ~shunt =
  let n = Array.length parent in
  if Array.length conductance <> n || Array.length shunt <> n then
    invalid_arg "Tree_ldl.factor_grounded: parent/conductance/shunt lengths differ";
  check_parents "Tree_ldl.factor_grounded" parent;
  (* e.(i): what row i holds besides the edge above it, its shunt plus
     each eliminated child's edge in series with that child's own e,
     g e / (g + e) -- every term positive, so no pivot is a difference
     of nearly equal numbers *)
  let e = Array.copy shunt in
  let d = Array.make n 0. and l = Array.make n 0. in
  for i = n - 1 downto 0 do
    let g = conductance.(i) in
    let di = g +. e.(i) in
    if not (di > 0.) then invalid_arg "Tree_ldl.factor_grounded: matrix is not positive definite";
    d.(i) <- di;
    let p = parent.(i) in
    if p >= 0 then begin
      l.(i) <- -.g /. di;
      e.(p) <- e.(p) +. (g *. (e.(i) /. di))
    end
  done;
  finish parent l d

let solve_in_place t b =
  let n = Array.length t.d in
  if Array.length b <> n then invalid_arg "Tree_ldl.solve_in_place: dimension mismatch";
  let timed = Obs.enabled () in
  let t0 = if timed then Unix.gettimeofday () else 0. in
  let parent = t.parent and l = t.l and d = t.d in
  (* forward sweep, leaves toward the root, fused with the diagonal:
     b <- D⁻¹ L⁻¹ b.  Children carry larger indices, so b.(i) is final
     when row i is reached and can be scaled in the same pass. *)
  for i = n - 1 downto 0 do
    let bi = b.(i) in
    let p = parent.(i) in
    if p >= 0 then b.(p) <- b.(p) -. (l.(i) *. bi);
    b.(i) <- bi /. d.(i)
  done;
  (* back sweep, root toward the leaves: b <- L⁻ᵀ b, writing 0 for any
     result below the smallest normal float.  With |l| > 1/2 a decaying
     tail would otherwise stick at the smallest subnormal, which costs
     every later operation on it a microcode assist. *)
  for i = 0 to n - 1 do
    let p = parent.(i) in
    let v = if p >= 0 then b.(i) -. (l.(i) *. b.(p)) else b.(i) in
    b.(i) <- (if Float.abs v < Float.min_float then 0. else v)
  done;
  Obs.Counter.incr m_solves;
  if timed then Obs.Histogram.observe m_solve_ns ((Unix.gettimeofday () -. t0) *. 1e9)

let solve t b =
  let x = Array.copy b in
  solve_in_place t x;
  x
