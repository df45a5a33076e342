open Numeric

type t = {
  rows : int;
  cols : int;
  row_start : int array; (* length rows+1 *)
  col_index : int array; (* length nnz, ascending within a row *)
  values : float array;
}

let rows m = m.rows
let cols m = m.cols
let nnz m = Array.length m.values

let of_triplets ~rows ~cols triplets =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.of_triplets: negative dimension";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg (Printf.sprintf "Sparse.of_triplets: entry (%d,%d) outside %dx%d" i j rows cols))
    triplets;
  (* accumulate duplicates *)
  let tbl = Hashtbl.create (List.length triplets) in
  List.iter
    (fun (i, j, v) ->
      let key = (i, j) in
      Hashtbl.replace tbl key (v +. Option.value (Hashtbl.find_opt tbl key) ~default:0.))
    triplets;
  let entries =
    Hashtbl.fold (fun (i, j) v acc -> if v = 0. then acc else (i, j, v) :: acc) tbl []
    |> List.sort compare
  in
  let count = List.length entries in
  let row_start = Array.make (rows + 1) 0 in
  let col_index = Array.make count 0 in
  let values = Array.make count 0. in
  List.iteri
    (fun k (i, j, v) ->
      row_start.(i + 1) <- row_start.(i + 1) + 1;
      col_index.(k) <- j;
      values.(k) <- v)
    entries;
  for i = 0 to rows - 1 do
    row_start.(i + 1) <- row_start.(i + 1) + row_start.(i)
  done;
  { rows; cols; row_start; col_index; values }

let of_dense m =
  let triplets = ref [] in
  for i = 0 to Matrix.rows m - 1 do
    for j = 0 to Matrix.cols m - 1 do
      let v = Matrix.get m i j in
      if v <> 0. then triplets := (i, j, v) :: !triplets
    done
  done;
  of_triplets ~rows:(Matrix.rows m) ~cols:(Matrix.cols m) !triplets

let to_dense m =
  let d = Matrix.create m.rows m.cols in
  for i = 0 to m.rows - 1 do
    for k = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      Matrix.add_entry d i m.col_index.(k) m.values.(k)
    done
  done;
  d

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Sparse.get: out of range";
  (* binary search within the row *)
  let lo = ref m.row_start.(i) and hi = ref (m.row_start.(i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = m.col_index.(mid) in
    if c = j then begin
      result := m.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let diagonal m =
  if m.rows <> m.cols then invalid_arg "Sparse.diagonal: matrix not square";
  Array.init m.rows (fun i -> get m i i)

let mul_vec m v =
  if Array.length v <> m.cols then invalid_arg "Sparse.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0. in
      for k = m.row_start.(i) to m.row_start.(i + 1) - 1 do
        acc := !acc +. (m.values.(k) *. v.(m.col_index.(k)))
      done;
      !acc)

let triplets_of m =
  let acc = ref [] in
  for i = 0 to m.rows - 1 do
    for k = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      acc := (i, m.col_index.(k), m.values.(k)) :: !acc
    done
  done;
  !acc

let transpose m =
  of_triplets ~rows:m.cols ~cols:m.rows (List.map (fun (i, j, v) -> (j, i, v)) (triplets_of m))

let scale s m = { m with values = Array.map (fun v -> s *. v) m.values }

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Sparse.add: shape mismatch";
  of_triplets ~rows:a.rows ~cols:a.cols (triplets_of a @ triplets_of b)
