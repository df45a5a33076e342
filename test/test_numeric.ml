(* Unit tests for the numeric substrate, and for the solvers the
   transient oracles of lib/check build on (Check.Ode, Check.Sparse,
   Check.Cg). *)

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b
let check_bool = Alcotest.(check bool)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* --- Float_cmp ---------------------------------------------------- *)

let float_cmp_tests =
  let open Numeric.Float_cmp in
  [
    Alcotest.test_case "equal values" `Quick (fun () -> check_bool "eq" true (approx_eq 1.0 1.0));
    Alcotest.test_case "close values" `Quick (fun () ->
        check_bool "eq" true (approx_eq 1.0 (1.0 +. 1e-12)));
    Alcotest.test_case "distant values" `Quick (fun () ->
        check_bool "neq" false (approx_eq 1.0 1.001));
    Alcotest.test_case "relative tolerance scales" `Quick (fun () ->
        check_bool "eq" true (approx_eq 1e12 (1e12 +. 1.)));
    Alcotest.test_case "absolute tolerance near zero" `Quick (fun () ->
        check_bool "eq" true (approx_eq 0. 1e-13));
    Alcotest.test_case "nan is never equal" `Quick (fun () ->
        check_bool "neq" false (approx_eq Float.nan Float.nan));
    Alcotest.test_case "identical infinities are equal" `Quick (fun () ->
        check_bool "eq" true (approx_eq Float.infinity Float.infinity));
    Alcotest.test_case "opposite infinities differ" `Quick (fun () ->
        check_bool "neq" false (approx_eq Float.infinity Float.neg_infinity));
    Alcotest.test_case "approx_le strict" `Quick (fun () -> check_bool "le" true (approx_le 1. 2.));
    Alcotest.test_case "approx_le tolerant" `Quick (fun () ->
        check_bool "le" true (approx_le (1. +. 1e-13) 1.));
    Alcotest.test_case "approx_le violated" `Quick (fun () ->
        check_bool "gt" false (approx_le 1.1 1.));
    Alcotest.test_case "clamp inside" `Quick (fun () ->
        check_float "mid" 0.5 (clamp ~lo:0. ~hi:1. 0.5));
    Alcotest.test_case "clamp below" `Quick (fun () -> check_float "lo" 0. (clamp ~lo:0. ~hi:1. (-3.)));
    Alcotest.test_case "clamp above" `Quick (fun () -> check_float "hi" 1. (clamp ~lo:0. ~hi:1. 7.));
    Alcotest.test_case "clamp bad interval raises" `Quick (fun () ->
        check_invalid "clamp" (fun () -> clamp ~lo:1. ~hi:0. 0.5));
    Alcotest.test_case "is_finite" `Quick (fun () ->
        check_bool "finite" true (is_finite 1.);
        check_bool "nan" false (is_finite Float.nan);
        check_bool "inf" false (is_finite Float.infinity));
  ]

(* --- Vector -------------------------------------------------------- *)

let vector_tests =
  let open Numeric.Vector in
  [
    Alcotest.test_case "create is zero" `Quick (fun () -> check_float "sum" 0. (sum (create 5)));
    Alcotest.test_case "add" `Quick (fun () ->
        let v = add [| 1.; 2. |] [| 3.; 4. |] in
        check_float "0" 4. v.(0);
        check_float "1" 6. v.(1));
    Alcotest.test_case "add dimension mismatch raises" `Quick (fun () ->
        check_invalid "add" (fun () -> add [| 1. |] [| 1.; 2. |]));
    Alcotest.test_case "sub" `Quick (fun () -> check_float "0" (-2.) (sub [| 1. |] [| 3. |]).(0));
    Alcotest.test_case "scale" `Quick (fun () -> check_float "0" 6. (scale 2. [| 3. |]).(0));
    Alcotest.test_case "dot" `Quick (fun () -> check_float "dot" 11. (dot [| 1.; 2. |] [| 3.; 4. |]));
    Alcotest.test_case "norm2" `Quick (fun () -> check_float "norm" 5. (norm2 [| 3.; 4. |]));
    Alcotest.test_case "norm_inf" `Quick (fun () ->
        check_float "norm" 4. (norm_inf [| 3.; -4.; 1. |]));
    Alcotest.test_case "norm_inf empty" `Quick (fun () -> check_float "norm" 0. (norm_inf [||]));
    Alcotest.test_case "axpy" `Quick (fun () ->
        let y = [| 1.; 1. |] in
        axpy 2. [| 1.; 2. |] y;
        check_float "0" 3. y.(0);
        check_float "1" 5. y.(1));
    Alcotest.test_case "add_in_place" `Quick (fun () ->
        let y = [| 1. |] in
        add_in_place y [| 2. |];
        check_float "0" 3. y.(0));
    Alcotest.test_case "scale_in_place" `Quick (fun () ->
        let y = [| 2. |] in
        scale_in_place 3. y;
        check_float "0" 6. y.(0));
    Alcotest.test_case "max_abs_diff" `Quick (fun () ->
        check_float "diff" 2. (max_abs_diff [| 1.; 5. |] [| 3.; 4. |]));
    Alcotest.test_case "map2" `Quick (fun () ->
        check_float "0" 3. (map2 ( +. ) [| 1. |] [| 2. |]).(0));
    Alcotest.test_case "of_list/to_list round-trip" `Quick (fun () ->
        Alcotest.(check (list (float 0.))) "round" [ 1.; 2. ] (to_list (of_list [ 1.; 2. ])));
    Alcotest.test_case "fill" `Quick (fun () ->
        let v = create 3 in
        fill v 2.;
        check_float "sum" 6. (sum v));
  ]

(* --- Matrix -------------------------------------------------------- *)

let matrix_tests =
  let open Numeric.Matrix in
  let m22 () = of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  [
    Alcotest.test_case "identity mul" `Quick (fun () ->
        let m = m22 () in
        check_float "diff" 0. (max_abs_diff (mul (identity 2) m) m));
    Alcotest.test_case "mul known" `Quick (fun () ->
        let m = m22 () in
        let p = mul m m in
        check_float "00" 7. (get p 0 0);
        check_float "01" 10. (get p 0 1);
        check_float "10" 15. (get p 1 0);
        check_float "11" 22. (get p 1 1));
    Alcotest.test_case "mul shape mismatch raises" `Quick (fun () ->
        check_invalid "mul" (fun () -> mul (m22 ()) (create 3 3)));
    Alcotest.test_case "mul_vec" `Quick (fun () ->
        let v = mul_vec (m22 ()) [| 1.; 1. |] in
        check_float "0" 3. v.(0);
        check_float "1" 7. v.(1));
    Alcotest.test_case "transpose" `Quick (fun () ->
        check_float "01" 3. (get (transpose (m22 ())) 0 1));
    Alcotest.test_case "add_entry accumulates" `Quick (fun () ->
        let m = create 2 2 in
        add_entry m 0 0 1.;
        add_entry m 0 0 2.;
        check_float "00" 3. (get m 0 0));
    Alcotest.test_case "get out of bounds raises" `Quick (fun () ->
        check_invalid "get" (fun () -> get (m22 ()) 2 0));
    Alcotest.test_case "of_arrays ragged raises" `Quick (fun () ->
        check_invalid "ragged" (fun () -> of_arrays [| [| 1. |]; [| 1.; 2. |] |]));
    Alcotest.test_case "is_symmetric true" `Quick (fun () ->
        check_bool "sym" true (is_symmetric (of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |])));
    Alcotest.test_case "is_symmetric false" `Quick (fun () ->
        check_bool "sym" false (is_symmetric (m22 ())));
    Alcotest.test_case "row and col" `Quick (fun () ->
        check_float "row" 2. (row (m22 ()) 0).(1);
        check_float "col" 2. (col (m22 ()) 1).(0));
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let m = m22 () in
        let c = copy m in
        set c 0 0 99.;
        check_float "orig" 1. (get m 0 0));
    Alcotest.test_case "scale" `Quick (fun () -> check_float "00" 2. (get (scale 2. (m22 ())) 0 0));
    Alcotest.test_case "add sub" `Quick (fun () ->
        let m = m22 () in
        check_float "add" 2. (get (add m m) 0 0);
        check_float "sub" 0. (get (sub m m) 1 1));
  ]

(* --- Lu ------------------------------------------------------------ *)

let lu_tests =
  let open Numeric in
  [
    Alcotest.test_case "solve 2x2" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
        let x = Lu.solve a [| 5.; 10. |] in
        check_close "x0" 1. x.(0);
        check_close "x1" 3. x.(1));
    Alcotest.test_case "solve requires pivoting" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
        let x = Lu.solve a [| 2.; 3. |] in
        check_close "x0" 3. x.(0);
        check_close "x1" 2. x.(1));
    Alcotest.test_case "singular raises" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
        match Lu.decompose a with
        | _ -> Alcotest.fail "expected Singular"
        | exception Lu.Singular _ -> ());
    Alcotest.test_case "non-square raises" `Quick (fun () ->
        check_invalid "decompose" (fun () -> Lu.decompose (Matrix.create 2 3)));
    Alcotest.test_case "determinant known" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
        check_close "det" (-2.) (Lu.determinant a));
    Alcotest.test_case "determinant of singular is zero" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
        check_close "det" 0. (Lu.determinant a));
    Alcotest.test_case "determinant sign tracks row swaps" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
        check_close "det" (-1.) (Lu.determinant a));
    Alcotest.test_case "inverse" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 4.; 7. |]; [| 2.; 6. |] |] in
        let id = Matrix.mul a (Lu.inverse a) in
        check_close ~eps:1e-12 "id" 0. (Matrix.max_abs_diff id (Matrix.identity 2)));
    Alcotest.test_case "solve residual on random 20x20" `Quick (fun () ->
        let st = Random.State.make [| 42 |] in
        let n = 20 in
        let a =
          Matrix.init n n (fun i j -> (if i = j then 10. else 0.) +. Random.State.float st 1.)
        in
        let b = Array.init n (fun _ -> Random.State.float st 1.) in
        let x = Lu.solve a b in
        let r = Vector.sub (Matrix.mul_vec a x) b in
        check_close ~eps:1e-10 "residual" 0. (Vector.norm_inf r));
    Alcotest.test_case "factor reuse" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 2.; 0. |]; [| 0.; 4. |] |] in
        let f = Lu.decompose a in
        check_close "b1" 1. (Lu.solve_factored f [| 2.; 0. |]).(0);
        check_close "b2" 2. (Lu.solve_factored f [| 0.; 8. |]).(1));
    Alcotest.test_case "solve_matrix columns" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 2.; 0. |]; [| 0.; 4. |] |] in
        let x = Lu.solve_matrix a (Matrix.identity 2) in
        check_close "00" 0.5 (Matrix.get x 0 0);
        check_close "11" 0.25 (Matrix.get x 1 1));
  ]

(* --- Eigen ---------------------------------------------------------- *)

let eigen_tests =
  let open Numeric in
  [
    Alcotest.test_case "diagonal matrix" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 3.; 0. |]; [| 0.; 1. |] |] in
        let d = Eigen.symmetric a in
        check_close "l0" 1. d.Eigen.eigenvalues.(0);
        check_close "l1" 3. d.Eigen.eigenvalues.(1));
    Alcotest.test_case "known 2x2" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 2. |] |] in
        let d = Eigen.symmetric a in
        check_close "l0" 1. d.Eigen.eigenvalues.(0);
        check_close "l1" 3. d.Eigen.eigenvalues.(1));
    Alcotest.test_case "reconstruction" `Quick (fun () ->
        let st = Random.State.make [| 7 |] in
        let n = 12 in
        let upper = Matrix.init n n (fun _ _ -> Random.State.float st 2. -. 1.) in
        let a =
          Matrix.init n n (fun i j -> if j >= i then Matrix.get upper i j else Matrix.get upper j i)
        in
        let d = Eigen.symmetric a in
        check_close ~eps:1e-7 "reconstruct" 0. (Matrix.max_abs_diff (Eigen.reconstruct d) a));
    Alcotest.test_case "eigenvector orthonormality" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 4.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 2. |] |] in
        let d = Eigen.symmetric a in
        let v = d.Eigen.eigenvectors in
        let vtv = Matrix.mul (Matrix.transpose v) v in
        check_close ~eps:1e-12 "orthonormal" 0. (Matrix.max_abs_diff vtv (Matrix.identity 3)));
    Alcotest.test_case "ascending order" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 5.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 3. |] |] in
        let d = Eigen.symmetric a in
        check_bool "sorted" true
          (d.Eigen.eigenvalues.(0) <= d.Eigen.eigenvalues.(1)
          && d.Eigen.eigenvalues.(1) <= d.Eigen.eigenvalues.(2)));
    Alcotest.test_case "trace preserved" `Quick (fun () ->
        let a = Matrix.of_arrays [| [| 4.; 1. |]; [| 1.; 3. |] |] in
        let d = Eigen.symmetric a in
        check_close "trace" 7. (d.Eigen.eigenvalues.(0) +. d.Eigen.eigenvalues.(1)));
    Alcotest.test_case "non-square raises" `Quick (fun () ->
        check_invalid "symmetric" (fun () -> Eigen.symmetric (Matrix.create 2 3)));
  ]

(* --- Roots ---------------------------------------------------------- *)

let roots_tests =
  let open Numeric.Roots in
  [
    Alcotest.test_case "bisect linear" `Quick (fun () ->
        check_close ~eps:1e-9 "root" 2. (bisect (fun x -> x -. 2.) ~lo:0. ~hi:10.));
    Alcotest.test_case "bisect endpoint zero" `Quick (fun () ->
        check_close "root" 0. (bisect (fun x -> x) ~lo:0. ~hi:1.));
    Alcotest.test_case "bisect no bracket raises" `Quick (fun () ->
        Alcotest.check_raises "no bracket" No_bracket (fun () ->
            ignore (bisect (fun x -> (x *. x) +. 1.) ~lo:(-1.) ~hi:1.)));
    Alcotest.test_case "brent transcendental" `Quick (fun () ->
        check_close ~eps:1e-9 "root" (Float.pi /. 2.) (brent cos ~lo:1. ~hi:2.));
    Alcotest.test_case "brent matches bisect" `Quick (fun () ->
        let f x = exp x -. 3. in
        check_close ~eps:1e-8 "agree" (bisect f ~lo:0. ~hi:2.) (brent f ~lo:0. ~hi:2.));
    Alcotest.test_case "brent no bracket raises" `Quick (fun () ->
        Alcotest.check_raises "no bracket" No_bracket (fun () ->
            ignore (brent (fun _ -> 1.) ~lo:0. ~hi:1.)));
    Alcotest.test_case "expand_bracket grows upward" `Quick (fun () ->
        let f x = x -. 100. in
        let lo, hi = expand_bracket f ~lo:0. ~hi:1. in
        check_bool "brackets" true (f lo *. f hi <= 0.));
    Alcotest.test_case "expand_bracket gives up" `Quick (fun () ->
        Alcotest.check_raises "no bracket" No_bracket (fun () ->
            ignore (expand_bracket (fun _ -> 1.) ~lo:0. ~hi:1. ~max_iter:5)));
    Alcotest.test_case "bisect reversed interval raises" `Quick (fun () ->
        check_invalid "bisect" (fun () -> bisect (fun x -> x) ~lo:1. ~hi:0.));
    Alcotest.test_case "brent steep function" `Quick (fun () ->
        check_close ~eps:1e-8 "root" 1. (brent (fun x -> (x ** 9.) -. 1.) ~lo:0. ~hi:5.));
  ]

(* --- Interp --------------------------------------------------------- *)

let interp_tests =
  let open Numeric.Interp in
  let xs = [| 0.; 1.; 2. |] and ys = [| 0.; 10.; 40. |] in
  [
    Alcotest.test_case "interior interpolation" `Quick (fun () ->
        check_close "mid" 5. (linear ~xs ~ys 0.5);
        check_close "mid2" 25. (linear ~xs ~ys 1.5));
    Alcotest.test_case "at samples" `Quick (fun () -> check_close "node" 10. (linear ~xs ~ys 1.));
    Alcotest.test_case "constant extrapolation" `Quick (fun () ->
        check_close "left" 0. (linear ~xs ~ys (-5.));
        check_close "right" 40. (linear ~xs ~ys 99.));
    Alcotest.test_case "single sample" `Quick (fun () ->
        check_close "value" 7. (linear ~xs:[| 1. |] ~ys:[| 7. |] 3.));
    Alcotest.test_case "length mismatch raises" `Quick (fun () ->
        check_invalid "linear" (fun () -> linear ~xs ~ys:[| 1. |] 0.5));
    Alcotest.test_case "non-increasing raises" `Quick (fun () ->
        check_invalid "linear" (fun () -> linear ~xs:[| 0.; 0. |] ~ys:[| 1.; 2. |] 0.5));
    Alcotest.test_case "inverse_monotone interior" `Quick (fun () ->
        Alcotest.(check (option (float 1e-12))) "x" (Some 0.5) (inverse_monotone ~xs ~ys 5.));
    Alcotest.test_case "inverse_monotone below range" `Quick (fun () ->
        Alcotest.(check (option (float 1e-12))) "x" (Some 0.) (inverse_monotone ~xs ~ys (-1.)));
    Alcotest.test_case "inverse_monotone unreachable" `Quick (fun () ->
        Alcotest.(check (option (float 1e-12))) "x" None (inverse_monotone ~xs ~ys 100.));
    Alcotest.test_case "trapezoid linear is exact" `Quick (fun () ->
        check_close "area" 1. (trapezoid ~xs:[| 0.; 1. |] ~ys:[| 0.; 2. |]));
    Alcotest.test_case "trapezoid piecewise" `Quick (fun () -> check_close "area" 30. (trapezoid ~xs ~ys));
    Alcotest.test_case "trapezoid_between clips" `Quick (fun () ->
        check_close "area" 5. (trapezoid_between ~xs ~ys ~lo:0. ~hi:1.);
        check_close "whole" 30. (trapezoid_between ~xs ~ys ~lo:(-10.) ~hi:10.));
    Alcotest.test_case "trapezoid_between partial segment" `Quick (fun () ->
        check_close "area" 1.25 (trapezoid_between ~xs ~ys ~lo:0. ~hi:0.5));
    Alcotest.test_case "trapezoid_between degenerate" `Quick (fun () ->
        check_close "area" 0. (trapezoid_between ~xs ~ys ~lo:5. ~hi:3.));
  ]

(* --- Ode ------------------------------------------------------------ *)

let ode_tests =
  let open Numeric in
  (* single RC: C v' = -G v + G u; R = 1k, C = 1u, tau = 1ms *)
  let r = 1000. and c = 1e-6 in
  let tau = r *. c in
  let g = Matrix.of_arrays [| [| 1. /. r |] |] in
  let cm = Matrix.of_arrays [| [| c |] |] in
  let b = [| 1. /. r |] in
  let exact t = 1. -. exp (-.t /. tau) in
  let final_error stepper =
    let traj =
      Check.Ode.simulate stepper ~x0:[| 0. |] ~u:(fun t -> if t < 0. then 0. else 1.) ~t_end:tau
    in
    let t_last, x_last = List.nth traj (List.length traj - 1) in
    Float.abs (x_last.(0) -. exact t_last)
  in
  [
    Alcotest.test_case "backward euler converges" `Quick (fun () ->
        let e = final_error (Check.Ode.backward_euler ~c:cm ~g ~b ~dt:(tau /. 100.)) in
        check_bool "small" true (e < 5e-3));
    Alcotest.test_case "backward euler is first order" `Quick (fun () ->
        let e1 = final_error (Check.Ode.backward_euler ~c:cm ~g ~b ~dt:(tau /. 50.)) in
        let e2 = final_error (Check.Ode.backward_euler ~c:cm ~g ~b ~dt:(tau /. 100.)) in
        check_bool "halving dt halves error" true (e1 /. e2 > 1.7 && e1 /. e2 < 2.3));
    Alcotest.test_case "trapezoidal is second order" `Quick (fun () ->
        let e1 = final_error (Check.Ode.trapezoidal ~c:cm ~g ~b ~dt:(tau /. 50.)) in
        let e2 = final_error (Check.Ode.trapezoidal ~c:cm ~g ~b ~dt:(tau /. 100.)) in
        check_bool "halving dt quarters error" true (e1 /. e2 > 3.4 && e1 /. e2 < 4.6));
    Alcotest.test_case "trapezoidal beats backward euler" `Quick (fun () ->
        let eb = final_error (Check.Ode.backward_euler ~c:cm ~g ~b ~dt:(tau /. 100.)) in
        let et = final_error (Check.Ode.trapezoidal ~c:cm ~g ~b ~dt:(tau /. 100.)) in
        check_bool "better" true (et < eb));
    Alcotest.test_case "trajectory includes t=0" `Quick (fun () ->
        let s = Check.Ode.backward_euler ~c:cm ~g ~b ~dt:(tau /. 10.) in
        match Check.Ode.simulate s ~x0:[| 0. |] ~u:(fun _ -> 1.) ~t_end:tau with
        | (t0, x0) :: _ ->
            check_float "t0" 0. t0;
            check_float "x0" 0. x0.(0)
        | [] -> Alcotest.fail "empty trajectory");
    Alcotest.test_case "dt accessor" `Quick (fun () ->
        check_close "dt" 1e-4 (Check.Ode.dt (Check.Ode.backward_euler ~c:cm ~g ~b ~dt:1e-4)));
    Alcotest.test_case "bad dt raises" `Quick (fun () ->
        check_invalid "dt" (fun () -> Check.Ode.backward_euler ~c:cm ~g ~b ~dt:0.));
    Alcotest.test_case "shape mismatch raises" `Quick (fun () ->
        check_invalid "shapes" (fun () -> Check.Ode.backward_euler ~c:cm ~g ~b:[| 1.; 2. |] ~dt:1.));
    Alcotest.test_case "negative t_end raises" `Quick (fun () ->
        let s = Check.Ode.backward_euler ~c:cm ~g ~b ~dt:1e-4 in
        check_invalid "t_end" (fun () -> Check.Ode.simulate s ~x0:[| 0. |] ~u:(fun _ -> 1.) ~t_end:(-1.)));
  ]

(* --- Stats ----------------------------------------------------------- *)

let stats_tests =
  let open Numeric.Stats in
  [
    Alcotest.test_case "mean" `Quick (fun () -> check_float "mean" 2. (mean [| 1.; 2.; 3. |]));
    Alcotest.test_case "mean of empty raises" `Quick (fun () ->
        check_invalid "mean" (fun () -> mean [||]));
    Alcotest.test_case "variance" `Quick (fun () -> check_close "var" 1. (variance [| 1.; 2.; 3. |]));
    Alcotest.test_case "variance of singleton is zero" `Quick (fun () ->
        check_float "var" 0. (variance [| 5. |]));
    Alcotest.test_case "stddev" `Quick (fun () -> check_close "sd" 1. (stddev [| 1.; 2.; 3. |]));
    Alcotest.test_case "min max" `Quick (fun () ->
        check_float "min" 1. (min [| 3.; 1.; 2. |]);
        check_float "max" 3. (max [| 3.; 1.; 2. |]));
    Alcotest.test_case "median odd" `Quick (fun () -> check_float "med" 2. (median [| 3.; 1.; 2. |]));
    Alcotest.test_case "median even interpolates" `Quick (fun () ->
        check_float "med" 1.5 (median [| 1.; 2. |]));
    Alcotest.test_case "percentile endpoints" `Quick (fun () ->
        check_float "p0" 1. (percentile [| 1.; 2.; 3. |] 0.);
        check_float "p100" 3. (percentile [| 1.; 2.; 3. |] 100.));
    Alcotest.test_case "percentile out of range raises" `Quick (fun () ->
        check_invalid "percentile" (fun () -> percentile [| 1. |] 101.));
    Alcotest.test_case "percentile does not mutate" `Quick (fun () ->
        let xs = [| 3.; 1. |] in
        ignore (percentile xs 50.);
        check_float "unchanged" 3. xs.(0));
    Alcotest.test_case "geometric mean" `Quick (fun () ->
        check_close "gm" 2. (geometric_mean [| 1.; 2.; 4. |]));
    Alcotest.test_case "geometric mean rejects non-positive" `Quick (fun () ->
        check_invalid "gm" (fun () -> geometric_mean [| 1.; 0. |]));
    Alcotest.test_case "linear_fit exact" `Quick (fun () ->
        let slope, intercept = linear_fit [| 0.; 1.; 2. |] [| 1.; 3.; 5. |] in
        check_close "slope" 2. slope;
        check_close "intercept" 1. intercept);
    Alcotest.test_case "linear_fit degenerate raises" `Quick (fun () ->
        check_invalid "fit" (fun () -> linear_fit [| 1.; 1. |] [| 1.; 2. |]));
    Alcotest.test_case "log_log_slope of a power law" `Quick (fun () ->
        let xs = [| 1.; 2.; 4.; 8. |] in
        let ys = Array.map (fun x -> 3. *. (x ** 2.)) xs in
        check_close "slope" 2. (log_log_slope xs ys));
    Alcotest.test_case "log_log_slope rejects non-positive" `Quick (fun () ->
        check_invalid "slope" (fun () -> log_log_slope [| 1.; 2. |] [| 1.; -1. |]));
  ]

(* --- Sparse --------------------------------------------------------- *)

let sparse_tests =
  let open Numeric in
  let sample () =
    Check.Sparse.of_triplets ~rows:3 ~cols:3
      [ (0, 0, 2.); (0, 1, -1.); (1, 0, -1.); (1, 1, 2.); (1, 2, -1.); (2, 1, -1.); (2, 2, 2.) ]
  in
  [
    Alcotest.test_case "get stored and missing entries" `Quick (fun () ->
        let m = sample () in
        check_float "00" 2. (Check.Sparse.get m 0 0);
        check_float "01" (-1.) (Check.Sparse.get m 0 1);
        check_float "02" 0. (Check.Sparse.get m 0 2));
    Alcotest.test_case "nnz counts stored entries" `Quick (fun () ->
        Alcotest.(check int) "nnz" 7 (Check.Sparse.nnz (sample ())));
    Alcotest.test_case "duplicates accumulate" `Quick (fun () ->
        let m = Check.Sparse.of_triplets ~rows:1 ~cols:1 [ (0, 0, 1.); (0, 0, 2.5) ] in
        check_float "sum" 3.5 (Check.Sparse.get m 0 0));
    Alcotest.test_case "explicit zeros dropped" `Quick (fun () ->
        let m = Check.Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 0.); (1, 1, 1.) ] in
        Alcotest.(check int) "nnz" 1 (Check.Sparse.nnz m));
    Alcotest.test_case "out of range rejected" `Quick (fun () ->
        check_invalid "range" (fun () -> Check.Sparse.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.) ]));
    Alcotest.test_case "dense round-trip" `Quick (fun () ->
        let d = Matrix.of_arrays [| [| 1.; 0.; 3. |]; [| 0.; 0.; 0. |]; [| 4.; 5.; 0. |] |] in
        check_float "diff" 0. (Matrix.max_abs_diff (Check.Sparse.to_dense (Check.Sparse.of_dense d)) d));
    Alcotest.test_case "mul_vec agrees with dense" `Quick (fun () ->
        let m = sample () in
        let v = [| 1.; 2.; 3. |] in
        let sparse = Check.Sparse.mul_vec m v in
        let dense = Matrix.mul_vec (Check.Sparse.to_dense m) v in
        check_float "diff" 0. (Vector.max_abs_diff sparse dense));
    Alcotest.test_case "diagonal" `Quick (fun () ->
        let d = Check.Sparse.diagonal (sample ()) in
        check_float "0" 2. d.(0);
        check_float "2" 2. d.(2));
    Alcotest.test_case "transpose" `Quick (fun () ->
        let m = Check.Sparse.of_triplets ~rows:2 ~cols:3 [ (0, 2, 7.) ] in
        let t = Check.Sparse.transpose m in
        Alcotest.(check int) "rows" 3 (Check.Sparse.rows t);
        check_float "20" 7. (Check.Sparse.get t 2 0));
    Alcotest.test_case "scale and add" `Quick (fun () ->
        let m = sample () in
        let s = Check.Sparse.add m (Check.Sparse.scale (-1.) m) in
        Alcotest.(check int) "cancels" 0 (Check.Sparse.nnz s));
  ]

(* --- Cg --------------------------------------------------------------- *)

let cg_tests =
  let open Numeric in
  let spd n =
    (* tridiagonal SPD: 2 on the diagonal, -1 off *)
    let triplets = ref [] in
    for i = 0 to n - 1 do
      triplets := (i, i, 2.) :: !triplets;
      if i > 0 then triplets := (i, i - 1, -1.) :: (i - 1, i, -1.) :: !triplets
    done;
    Check.Sparse.of_triplets ~rows:n ~cols:n !triplets
  in
  [
    Alcotest.test_case "solves a small SPD system" `Quick (fun () ->
        let a = spd 5 in
        let x_true = [| 1.; -2.; 3.; 0.5; 2. |] in
        let b = Check.Sparse.mul_vec a x_true in
        let x = Check.Cg.solve_sparse a b in
        check_close ~eps:1e-9 "x" 0. (Vector.max_abs_diff x x_true));
    Alcotest.test_case "matches LU on a random SPD system" `Quick (fun () ->
        let st = Random.State.make [| 11 |] in
        let n = 15 in
        let m = Matrix.init n n (fun _ _ -> Random.State.float st 1.) in
        (* A = M^T M + n I is SPD *)
        let a = Matrix.add (Matrix.mul (Matrix.transpose m) m) (Matrix.scale (float_of_int n) (Matrix.identity n)) in
        let b = Array.init n (fun i -> sin (float_of_int i)) in
        let x_lu = Lu.solve a b in
        let x_cg, _ = Check.Cg.solve ~mul:(Matrix.mul_vec a) b in
        check_close ~eps:1e-8 "agree" 0. (Vector.max_abs_diff x_lu x_cg));
    Alcotest.test_case "zero rhs gives zero instantly" `Quick (fun () ->
        let x, stats = Check.Cg.solve ~mul:(fun v -> v) [| 0.; 0. |] in
        check_float "x0" 0. x.(0);
        Alcotest.(check int) "iters" 0 stats.Check.Cg.iterations);
    Alcotest.test_case "converges within n iterations in exact arithmetic" `Quick (fun () ->
        let a = spd 30 in
        let b = Array.make 30 1. in
        let _, stats = Check.Cg.solve ~diag_precondition:(Check.Sparse.diagonal a) ~mul:(Check.Sparse.mul_vec a) b in
        check_bool "iters <= 2n" true (stats.Check.Cg.iterations <= 60));
    Alcotest.test_case "iteration limit raises" `Quick (fun () ->
        let a = spd 30 in
        let b = Array.make 30 1. in
        match Check.Cg.solve ~max_iter:2 ~mul:(Check.Sparse.mul_vec a) b with
        | _ -> Alcotest.fail "expected Not_converged"
        | exception Check.Cg.Not_converged stats ->
            Alcotest.(check int) "iters" 2 stats.Check.Cg.iterations);
    Alcotest.test_case "bad preconditioner rejected" `Quick (fun () ->
        check_invalid "precond" (fun () ->
            Check.Cg.solve ~diag_precondition:[| 0.; 1. |] ~mul:(fun v -> v) [| 1.; 1. |]));
  ]

(* --- Tree_ldl --------------------------------------------------------- *)

let tree_ldl_tests =
  let open Numeric in
  (* the textbook factor and three-loop solve (forward, diagonal, back),
     with no flush: the contract the library's fused sweeps are held to *)
  let reference_solve ~parent ~diag ~offdiag b =
    let n = Array.length diag in
    let d = Array.copy diag and l = Array.make n 0. and x = Array.copy b in
    for i = n - 1 downto 0 do
      let p = parent.(i) in
      if p >= 0 then begin
        l.(i) <- offdiag.(i) /. d.(i);
        d.(p) <- d.(p) -. (offdiag.(i) *. l.(i))
      end
    done;
    for i = n - 1 downto 0 do
      let p = parent.(i) in
      if p >= 0 then x.(p) <- x.(p) -. (l.(i) *. x.(i))
    done;
    for i = 0 to n - 1 do
      x.(i) <- x.(i) /. d.(i)
    done;
    for i = 0 to n - 1 do
      let p = parent.(i) in
      if p >= 0 then x.(i) <- x.(i) -. (l.(i) *. x.(p))
    done;
    x
  in
  (* parents strictly before children, -1 making a forest root (row 0
     and about ln n others) *)
  let random_forest st n =
    let parent = Array.init n (fun i -> if i = 0 then -1 else Random.State.int st (i + 1) - 1) in
    let offdiag =
      Array.init n (fun i -> if parent.(i) = -1 then 0. else -.(0.1 +. Random.State.float st 2.))
    in
    (* diagonally dominant, hence SPD *)
    let diag = Array.init n (fun i -> 0.5 +. Random.State.float st 1. +. Float.abs offdiag.(i)) in
    Array.iteri (fun i p -> if p >= 0 then diag.(p) <- diag.(p) +. Float.abs offdiag.(i)) parent;
    (parent, diag, offdiag)
  in
  let hex = Printf.sprintf "%h" in
  let subnormal v = Float.classify_float v = FP_subnormal in
  let dense_of ~parent ~diag ~offdiag =
    let n = Array.length diag in
    Matrix.init n n (fun i j ->
        if i = j then diag.(i)
        else if parent.(i) = j then offdiag.(i)
        else if parent.(j) = i then offdiag.(j)
        else 0.)
  in
  (* a chain: parent i-1, the classic (2, -1) tridiagonal SPD matrix *)
  let chain n =
    ( Array.init n (fun i -> i - 1),
      Array.make n 2.,
      Array.init n (fun i -> if i = 0 then 0. else -1.) )
  in
  [
    Alcotest.test_case "chain matches dense LU" `Quick (fun () ->
        let parent, diag, offdiag = chain 30 in
        let a = dense_of ~parent ~diag ~offdiag in
        let b = Array.init 30 (fun i -> sin (float_of_int i)) in
        let x_lu = Lu.solve a b in
        let x_tree = Tree_ldl.solve (Tree_ldl.factor ~parent ~diag ~offdiag) b in
        check_close ~eps:1e-10 "agree" 0. (Vector.max_abs_diff x_lu x_tree));
    Alcotest.test_case "random forests match dense LU" `Quick (fun () ->
        let st = Random.State.make [| 23 |] in
        for trial = 1 to 10 do
          let parent, diag, offdiag = random_forest st (2 + Random.State.int st 40) in
          let n = Array.length parent in
          let b = Array.init n (fun i -> cos (float_of_int (i + trial))) in
          let x_lu = Lu.solve (dense_of ~parent ~diag ~offdiag) b in
          let x_tree = Tree_ldl.solve (Tree_ldl.factor ~parent ~diag ~offdiag) b in
          check_close ~eps:1e-9 (Printf.sprintf "trial %d" trial) 0.
            (Vector.max_abs_diff x_lu x_tree)
        done);
    Alcotest.test_case "solve_in_place equals solve and size reports n" `Quick (fun () ->
        let parent, diag, offdiag = chain 12 in
        let f = Tree_ldl.factor ~parent ~diag ~offdiag in
        Alcotest.(check int) "size" 12 (Tree_ldl.size f);
        let b = Array.init 12 float_of_int in
        let x = Tree_ldl.solve f b in
        Tree_ldl.solve_in_place f b;
        check_close ~eps:0. "identical" 0. (Vector.max_abs_diff x b));
    Alcotest.test_case "solve_in_place allocates nothing per solve" `Quick (fun () ->
        (* metrics disabled (the default): after warm-up, repeated solves
           must not touch the minor heap at all *)
        let parent, diag, offdiag = chain 1000 in
        let f = Tree_ldl.factor ~parent ~diag ~offdiag in
        let b = Array.init 1000 (fun i -> float_of_int (i mod 7)) in
        Tree_ldl.solve_in_place f b;
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        for _ = 1 to 100 do
          Tree_ldl.solve_in_place f b
        done;
        let w1 = Gc.minor_words () in
        (* slack only for boxing the Gc.minor_words results themselves *)
        check_bool "no per-solve allocation" true (w1 -. w0 < 100.));
    Alcotest.test_case "validation" `Quick (fun () ->
        let parent, diag, offdiag = chain 4 in
        check_invalid "length mismatch" (fun () ->
            Tree_ldl.factor ~parent ~diag ~offdiag:[| 0.; -1. |]);
        check_invalid "parent not before child" (fun () ->
            Tree_ldl.factor ~parent:[| -1; 1 |] ~diag:[| 2.; 2. |] ~offdiag:[| 0.; -1. |]);
        check_invalid "parent out of range" (fun () ->
            Tree_ldl.factor ~parent:[| -2; 0 |] ~diag:[| 2.; 2. |] ~offdiag:[| 0.; -1. |]);
        check_invalid "not positive definite" (fun () ->
            Tree_ldl.factor ~parent:[| -1; 0 |] ~diag:[| 1.; 1. |] ~offdiag:[| 0.; -2. |]);
        let f = Tree_ldl.factor ~parent ~diag ~offdiag in
        check_invalid "rhs length" (fun () -> Tree_ldl.solve_in_place f [| 1. |]));
    Alcotest.test_case "pivot fault hook corrupts solves until disarmed" `Quick (fun () ->
        let parent, diag, offdiag = chain 16 in
        let b = Array.make 16 1. in
        let clean = Tree_ldl.solve (Tree_ldl.factor ~parent ~diag ~offdiag) b in
        Fun.protect
          ~finally:(fun () -> Tree_ldl.set_pivot_fault None)
          (fun () ->
            Tree_ldl.set_pivot_fault (Some (0, 1.05));
            Alcotest.(check bool)
              "armed" true
              (Tree_ldl.pivot_fault () = Some (0, 1.05));
            let skewed = Tree_ldl.solve (Tree_ldl.factor ~parent ~diag ~offdiag) b in
            check_bool "corrupted" true (Vector.max_abs_diff clean skewed > 1e-6));
        let again = Tree_ldl.solve (Tree_ldl.factor ~parent ~diag ~offdiag) b in
        check_close ~eps:0. "disarmed" 0. (Vector.max_abs_diff clean again));
    Alcotest.test_case "no subnormal output; normal entries match the unflushed solve" `Quick
      (fun () ->
        (* D = 2.2 under a -1 coupling: |l| settles near 0.64, so past the
           root's influence the back sweep decays by 0.64 per row, and
           the unflushed solve sticks at the smallest subnormal, since
           0.64 * 5e-324 rounds back to 5e-324 *)
        let n = 3000 in
        let parent = Array.init n (fun i -> i - 1) in
        let diag = Array.make n 2.2 in
        let offdiag = Array.init n (fun i -> if i = 0 then 0. else -1.) in
        let b = Array.init n (fun i -> if i = 0 then 1. else 0.) in
        let expected = reference_solve ~parent ~diag ~offdiag b in
        let x = Tree_ldl.solve (Tree_ldl.factor ~parent ~diag ~offdiag) b in
        let count p a = Array.fold_left (fun k v -> if p v then k + 1 else k) 0 a in
        let stuck = count (fun v -> v = Float.succ 0.) expected in
        check_bool (Printf.sprintf "reference stuck at 5e-324 in %d rows" stuck) true (stuck > 1000);
        Alcotest.(check int) "no subnormal output" 0 (count subnormal x);
        Array.iteri
          (fun i v ->
            if Float.abs v >= Float.min_float || Float.abs x.(i) >= Float.min_float then
              Alcotest.(check string) (Printf.sprintf "row %d" i) (hex v) (hex x.(i))
            else check_bool (Printf.sprintf "row %d flushed" i) true (x.(i) = 0.))
          expected);
    Alcotest.test_case "fused sweeps are bit-identical to three loops on forests" `Quick (fun () ->
        let st = Random.State.make [| 41 |] and roots = ref 0 in
        for trial = 1 to 20 do
          let parent, diag, offdiag = random_forest st (2 + Random.State.int st 300) in
          let n = Array.length parent in
          Array.iter (fun p -> if p = -1 then incr roots) parent;
          let b = Array.init n (fun _ -> Random.State.float st 2. -. 1.) in
          let expected = reference_solve ~parent ~diag ~offdiag b in
          let x = Tree_ldl.solve (Tree_ldl.factor ~parent ~diag ~offdiag) b in
          Alcotest.(check (array string))
            (Printf.sprintf "trial %d (n = %d)" trial n)
            (Array.map hex expected) (Array.map hex x)
        done;
        check_bool (Printf.sprintf "several roots per forest (%d in 20)" !roots) true (!roots > 40));
    Alcotest.test_case "a subnormal root result comes out 0" `Quick (fun () ->
        (* two one-row trees: min_float / 4 is subnormal, 1 / 1 is not *)
        let parent = [| -1; -1 |] and diag = [| 4.; 1. |] and offdiag = [| 0.; 0. |] in
        let b = [| Float.min_float; 1. |] in
        check_bool "reference is subnormal" true
          (subnormal (reference_solve ~parent ~diag ~offdiag b).(0));
        let x = Tree_ldl.solve (Tree_ldl.factor ~parent ~diag ~offdiag) b in
        Alcotest.(check string) "flushed root" (hex 0.) (hex x.(0));
        Alcotest.(check string) "normal root" (hex 1.) (hex x.(1)));
    Alcotest.test_case "grounded factor: the same system, pivots without cancellation" `Quick
      (fun () ->
        let assemble ~parent ~conductance ~shunt =
          let n = Array.length parent in
          let diag = Array.init n (fun i -> shunt.(i) +. conductance.(i)) in
          Array.iteri (fun i p -> if p >= 0 then diag.(p) <- diag.(p) +. conductance.(i)) parent;
          (diag, Array.init n (fun i -> if parent.(i) >= 0 then -.conductance.(i) else 0.))
        in
        let st = Random.State.make [| 5 |] in
        for trial = 1 to 20 do
          let n = 2 + Random.State.int st 200 in
          let parent, _, _ = random_forest st n in
          let conductance = Array.init n (fun _ -> 0.1 +. Random.State.float st 2.) in
          let shunt = Array.init n (fun _ -> 0.5 +. Random.State.float st 1.) in
          let diag, offdiag = assemble ~parent ~conductance ~shunt in
          let b = Array.init n (fun _ -> Random.State.float st 2. -. 1.) in
          let x = Tree_ldl.solve (Tree_ldl.factor ~parent ~diag ~offdiag) b in
          let y = Tree_ldl.solve (Tree_ldl.factor_grounded ~parent ~conductance ~shunt) b in
          check_close ~eps:1e-12 (Printf.sprintf "trial %d" trial) 0. (Vector.max_abs_diff x y)
        done;
        (* a stiff chain, 1e6 S edges over about 1e-6 F/s shunts: with
           x all ones, b is the shunts plus the grounded edge at the
           root (2^20 + 2^-20, exact), so the solve must give back ones *)
        let n = 200 in
        let parent = Array.init n (fun i -> i - 1) in
        let conductance = Array.init n (fun i -> if i = 0 then 0x1p20 else 1e6) in
        let shunt =
          Array.init n (fun i -> if i = 0 then 0x1p-20 else 1e-6 *. (1. +. sin (float_of_int i)))
        in
        let b = Array.copy shunt in
        b.(0) <- conductance.(0) +. shunt.(0);
        let error f = Vector.max_abs_diff (Tree_ldl.solve f b) (Array.make n 1.) in
        let diag, offdiag = assemble ~parent ~conductance ~shunt in
        let assembled = error (Tree_ldl.factor ~parent ~diag ~offdiag)
        and grounded = error (Tree_ldl.factor_grounded ~parent ~conductance ~shunt) in
        check_bool
          (Printf.sprintf "grounded error %.3g (assembled %.3g)" grounded assembled)
          true (grounded < 1e-14);
        check_invalid "bad order" (fun () ->
            Tree_ldl.factor_grounded ~parent:[| 0 |] ~conductance:[| 1. |] ~shunt:[| 1. |]);
        check_invalid "lengths" (fun () ->
            Tree_ldl.factor_grounded ~parent:[| -1 |] ~conductance:[||] ~shunt:[| 1. |]);
        check_invalid "not positive definite" (fun () ->
            Tree_ldl.factor_grounded ~parent:[| -1 |] ~conductance:[| 1. |] ~shunt:[| -2. |]));
  ]

(* --- Polynomial -------------------------------------------------------- *)

let polynomial_tests =
  let open Numeric.Polynomial in
  [
    Alcotest.test_case "degree ignores trailing zeros" `Quick (fun () ->
        Alcotest.(check int) "deg" 2 (degree [| 1.; 2.; 3.; 0.; 0. |]);
        Alcotest.(check int) "zero poly" (-1) (degree [| 0.; 0. |]));
    Alcotest.test_case "horner evaluation" `Quick (fun () ->
        check_float "p(2)" 17. (eval [| 1.; 2.; 3. |] 2.));
    Alcotest.test_case "derivative" `Quick (fun () ->
        let d = derivative [| 5.; 1.; 2.; 3. |] in
        check_float "d0" 1. d.(0);
        check_float "d1" 4. d.(1);
        check_float "d2" 9. d.(2));
    Alcotest.test_case "cauchy bound contains the roots" `Quick (fun () ->
        (* (x-1)(x-2)(x-3) = -6 + 11x - 6x^2 + x^3 *)
        let p = [| -6.; 11.; -6.; 1. |] in
        check_bool "bound" true (cauchy_bound p >= 3.));
    Alcotest.test_case "linear root" `Quick (fun () ->
        Alcotest.(check (array (float 1e-12))) "roots" [| 2.5 |] (real_roots [| -5.; 2. |]));
    Alcotest.test_case "distinct real roots" `Quick (fun () ->
        let p = [| -6.; 11.; -6.; 1. |] in
        Alcotest.(check (array (float 1e-9))) "roots" [| 1.; 2.; 3. |] (real_roots p));
    Alcotest.test_case "negative real roots" `Quick (fun () ->
        (* (x+0.5)(x+4) = 2 + 4.5x + x^2 *)
        Alcotest.(check (array (float 1e-9))) "roots" [| -4.; -0.5 |]
          (real_roots [| 2.; 4.5; 1. |]));
    Alcotest.test_case "double root reported once" `Quick (fun () ->
        (* (x-1)^2 = 1 - 2x + x^2 *)
        let roots = real_roots [| 1.; -2.; 1. |] in
        Alcotest.(check int) "count" 1 (Array.length roots);
        check_close ~eps:1e-6 "value" 1. roots.(0));
    Alcotest.test_case "no real roots" `Quick (fun () ->
        Alcotest.(check int) "count" 0 (Array.length (real_roots [| 1.; 0.; 1. |])));
    Alcotest.test_case "wide dynamic range" `Quick (fun () ->
        (* roots at -1e-3 and -1e3 *)
        let p = [| 1.; 1000.001; 1. |] in
        let roots = real_roots p in
        Alcotest.(check int) "count" 2 (Array.length roots);
        check_close ~eps:1e-6 "small" (-1000.) roots.(0);
        check_close ~eps:1e-9 "large" (-0.001) roots.(1));
    Alcotest.test_case "zero polynomial rejected" `Quick (fun () ->
        check_invalid "zero" (fun () -> real_roots [| 0. |]));
    Alcotest.test_case "close pair placed by compensated evaluation" `Quick (fun () ->
        (* plain Horner's rounding near the pair's critical point is
           as large as p there, and put the pair at -6.9830709 and
           -6.9830694; the exact roots come from rational arithmetic *)
        let p =
          Array.map Float.of_string
            [|
              "0x1.bdba4e70f058p+14";
              "0x1.12e5870c2dde8p+15";
              "0x1.04949ab1445b8p+14";
              "0x1.f5afd76015b6ap+11";
              "0x1.06cc9b6ddddaep+9";
              "0x1.1ebaa09f8b3a5p+5";
              "0x1p+0";
            |]
        in
        Alcotest.(check (array (float 1e-8)))
          "roots"
          [|
            -7.17774044293;
            -6.98308019242;
            -6.98305870141;
            -6.43444353045;
            -6.22948105241;
            -2.03332275737;
          |]
          (real_roots p));
  ]

let () =
  Alcotest.run "numeric"
    [
      ("float_cmp", float_cmp_tests);
      ("vector", vector_tests);
      ("matrix", matrix_tests);
      ("lu", lu_tests);
      ("eigen", eigen_tests);
      ("roots", roots_tests);
      ("interp", interp_tests);
      ("ode", ode_tests);
      ("stats", stats_tests);
      ("sparse", sparse_tests);
      ("polynomial", polynomial_tests);
      ("cg", cg_tests);
      ("tree_ldl", tree_ldl_tests);
    ]
