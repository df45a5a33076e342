type t = float array

let degree p =
  let rec scan i = if i < 0 then -1 else if p.(i) <> 0. then i else scan (i - 1) in
  scan (Array.length p - 1)

let eval p x =
  let acc = ref 0. in
  for i = Array.length p - 1 downto 0 do
    acc := (!acc *. x) +. p.(i)
  done;
  !acc

(* Compensated Horner (Graillat, Langlois and Louvet): the rounding
   error of each product and sum is recovered exactly, with an fma and
   a two-sum, and carried along in a second Horner sum.  The result is
   as accurate as plain Horner in twice the working precision, so the
   sign of p stays right close to a pair of nearly equal roots, where
   plain Horner's error is as large as p itself. *)
let eval_compensated p x =
  let n = Array.length p in
  if n = 0 then 0.
  else begin
    let s = ref p.(n - 1) and c = ref 0. in
    for i = n - 2 downto 0 do
      let prod = !s *. x in
      let prod_err = Float.fma !s x (-.prod) in
      let sum = prod +. p.(i) in
      let back = sum -. prod in
      let sum_err = (prod -. (sum -. back)) +. (p.(i) -. back) in
      s := sum;
      c := (!c *. x) +. (prod_err +. sum_err)
    done;
    !s +. !c
  end

let derivative p =
  let d = degree p in
  if d <= 0 then [| 0. |] else Array.init d (fun i -> float_of_int (i + 1) *. p.(i + 1))

let cauchy_bound p =
  let d = degree p in
  if d < 0 then invalid_arg "Polynomial.cauchy_bound: zero polynomial";
  if d = 0 then 0.
  else begin
    let lead = Float.abs p.(d) in
    let m = ref 0. in
    for i = 0 to d - 1 do
      m := Float.max !m (Float.abs p.(i) /. lead)
    done;
    1. +. !m
  end

(* roots by derivative interlacing: the critical points of p split the
   line into intervals on each of which p is monotone; scan them for
   sign changes *)
let real_roots ?(tol = 1e-13) p =
  let d = degree p in
  if d < 0 then invalid_arg "Polynomial.real_roots: zero polynomial";
  if d = 0 then [||]
  else begin
    let rec roots_of q =
      let dq = degree q in
      if dq <= 0 then [||]
      else if dq = 1 then [| -.q.(0) /. q.(1) |]
      else begin
        let critical = roots_of (derivative q) in
        let bound = cauchy_bound q in
        let points =
          Array.concat [ [| -.bound |]; critical; [| bound |] ]
          |> Array.to_list |> List.sort_uniq Float.compare |> Array.of_list
        in
        let found = ref [] in
        let record x =
          match !found with
          | prev :: _ when Float.abs (x -. prev) <= tol *. Float.max 1. (Float.abs x) -> ()
          | _ -> found := x :: !found
        in
        let f x = eval_compensated q x in
        for i = 0 to Array.length points - 2 do
          let a = points.(i) and b = points.(i + 1) in
          let fa = f a and fb = f b in
          if fa = 0. then record a
          else if fa *. fb < 0. then
            record (Roots.brent f ~lo:a ~hi:b ~tol:(tol *. Float.max 1. bound))
        done;
        (* the right endpoint can itself be a root (e.g. a critical
           point sitting exactly on zero) *)
        let last = points.(Array.length points - 1) in
        if f last = 0. then record last;
        Array.of_list (List.rev !found)
      end
    in
    roots_of (Array.sub p 0 (d + 1))
  end

let pp fmt p =
  let d = Int.max 0 (degree p) in
  Format.fprintf fmt "@[";
  for i = 0 to d do
    if i > 0 then Format.fprintf fmt " + ";
    Format.fprintf fmt "%g" p.(i);
    if i > 0 then Format.fprintf fmt " x^%d" i
  done;
  Format.fprintf fmt "@]"
