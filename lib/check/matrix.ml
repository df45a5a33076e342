type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0. }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1. else 0.)
let rows m = m.rows
let cols m = m.cols

let check_bounds name m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg (Printf.sprintf "Matrix.%s: index (%d,%d) out of %dx%d" name i j m.rows m.cols)

let get m i j =
  check_bounds "get" m i j;
  m.data.((i * m.cols) + j)

let set m i j x =
  check_bounds "set" m i j;
  m.data.((i * m.cols) + j) <- x

let add_entry m i j x =
  check_bounds "add_entry" m i j;
  let k = (i * m.cols) + j in
  m.data.(k) <- m.data.(k) +. x

let copy m = { m with data = Array.copy m.data }

let of_arrays a =
  let rows = Array.length a in
  let cols = if rows = 0 then 0 else Array.length a.(0) in
  Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Matrix.of_arrays: ragged rows") a;
  init rows cols (fun i j -> a.(i).(j))

let to_arrays m = Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))
let transpose m = init m.cols m.rows (fun i j -> get m j i)

let mul a b =
  if a.cols <> b.rows then
    invalid_arg (Printf.sprintf "Matrix.mul: %dx%d times %dx%d" a.rows a.cols b.rows b.cols);
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <- c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let mul_vec m v =
  if m.cols <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. v.(j))
      done;
      !acc)

let elementwise name f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg ("Matrix." ^ name ^ ": shape mismatch");
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = elementwise "add" ( +. ) a b
let sub a b = elementwise "sub" ( -. ) a b
let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Matrix.max_abs_diff: shape mismatch";
  let m = ref 0. in
  Array.iteri (fun k x -> m := Float.max !m (Float.abs (x -. b.data.(k)))) a.data;
  !m

let is_symmetric ?(tol = 1e-12) m =
  m.rows = m.cols
  &&
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if Float.abs (get m i j -. get m j i) > tol then ok := false
    done
  done;
  !ok

let row m i = Array.init m.cols (fun j -> get m i j)
let col m j = Array.init m.rows (fun i -> get m i j)

