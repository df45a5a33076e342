(* Per-layer probes of the transient stack shared by both transient
   workloads: the operator and factor timed as separate calls, one raw
   tree-LDLᵀ solve on a clean right-hand side and one on the state the
   stepping loop reaches, the subnormal share of that state, and the
   solve's computed bandwidth against a copy bandwidth measured in the
   same run. *)

open Harness

(* Bytes one [Tree_ldl.solve_in_place] moves per row, computed from its
   three loops (8-byte words, no cache effects): the forward sweep reads
   parent, l and b.(i) and updates b.(p) (40); the diagonal reads d and
   updates b.(i) (24); the back sweep reads parent, l and b.(p) and
   updates b.(i) (40). *)
let solve_bytes_per_row = 104.

(* Copy source and destination are each this many floats (128 MiB):
   several times the last-level cache of common hosts, small enough for
   a shared one.  The record states the size. *)
let copy_floats = 16 * 1024 * 1024

let copy_gbps () =
  let src = Array.make copy_floats 1. and dst = Array.make copy_floats 0. in
  let t =
    median_of ~reps:3 (fun () -> snd (timed (fun () -> Array.blit src 0 dst 0 copy_floats)))
  in
  2. *. 8. *. float_of_int copy_floats /. t /. 1e9

let subnormal_share x =
  let k = ref 0 in
  Array.iter (fun v -> if Float.classify_float v = FP_subnormal then incr k) x;
  float_of_int !k /. float_of_int (max 1 (Array.length x))

(* the right-hand side of the next step from state [x]: backward Euler
   [C/dt x + g u], or trapezoidal [(2C/dt - G) x + g (u + u)] with the
   operator built at dt/2, for a settled input u = 1 *)
let next_rhs ~trapezoidal op x =
  let c = Circuit.Large.c_over_dt op in
  let b =
    if trapezoidal then begin
      let ax = Circuit.Large.apply op x in
      Array.mapi (fun r axr -> (2. *. c.(r) *. x.(r)) -. axr) ax
    end
    else Array.mapi (fun r xr -> c.(r) *. xr) x
  in
  let u = if trapezoidal then 2. else 1. in
  List.iter (fun (r, g) -> b.(r) <- b.(r) +. (g *. u)) (Circuit.Large.source_rows op);
  b

(* [reps] raw solves each on a clean O(1) right-hand side and on
   [state_rhs]; returns the per-layer figures they give *)
let solves ~reps op ~state ~state_rhs =
  let f = Circuit.Large.factor op in
  let n = Circuit.Large.node_count op in
  let buf = Array.make n 0. in
  let solve_on fill =
    median_of ~reps (fun () ->
        fill ();
        snd (timed (fun () -> Numeric.Tree_ldl.solve_in_place f buf)))
  in
  let clean = solve_on (fun () -> Array.fill buf 0 n 1.) in
  let on_state = solve_on (fun () -> Array.blit state_rhs 0 buf 0 n) in
  let bytes = solve_bytes_per_row *. float_of_int n in
  let gbps = bytes /. clean /. 1e9 in
  let copy = copy_gbps () in
  ( clean,
    [
      ("numeric.solve_clean_s", clean);
      ("numeric.solve_state_s", on_state);
      ("numeric.subnormal_share", subnormal_share state);
      ("numeric.solve_bytes", bytes);
      ("numeric.solve_gbps", gbps);
      ("numeric.copy_gbps", copy);
      ("numeric.copy_array_bytes", 8. *. float_of_int copy_floats);
      ("numeric.solve_bw_frac", gbps /. copy);
    ] )
