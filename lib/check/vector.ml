type t = float array

let create n = Array.make n 0.
let dim = Array.length
let of_list = Array.of_list
let to_list = Array.to_list
let fill v x = Array.fill v 0 (Array.length v) x

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vector.%s: dimension mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let sub a b =
  check_dims "sub" a b;
  Array.init (Array.length a) (fun i -> a.(i) -. b.(i))

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let scale_in_place s v =
  for i = 0 to Array.length v - 1 do
    v.(i) <- s *. v.(i)
  done

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)

let norm_inf a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. a

let max_abs_diff a b =
  check_dims "max_abs_diff" a b;
  let m = ref 0. in
  for i = 0 to Array.length a - 1 do
    m := Float.max !m (Float.abs (a.(i) -. b.(i)))
  done;
  !m

let sum = Array.fold_left ( +. ) 0.
