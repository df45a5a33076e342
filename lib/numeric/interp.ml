(* annotated: at ['a array] each [<=] below would box its floats and
   call the polymorphic compare *)
let validate name (xs : float array) (ys : float array) =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg ("Interp." ^ name ^ ": length mismatch");
  if n < 1 then invalid_arg ("Interp." ^ name ^ ": empty samples");
  for i = 0 to n - 2 do
    if xs.(i + 1) <= xs.(i) then invalid_arg ("Interp." ^ name ^ ": xs not strictly increasing")
  done

(* binary search: greatest i with xs.(i) <= x, clamped to [0, n-2] *)
let segment_index (xs : float array) (x : float) =
  let n = Array.length xs in
  if x <= xs.(0) then 0
  else if x >= xs.(n - 1) then Int.max 0 (n - 2)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let linear_unchecked ~xs ~ys x =
  let n = Array.length xs in
  if n = 1 || x <= xs.(0) then ys.(0)
  else if x >= xs.(n - 1) then ys.(n - 1)
  else begin
    let i = segment_index xs x in
    let t = (x -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
    ys.(i) +. (t *. (ys.(i + 1) -. ys.(i)))
  end

let linear ~xs ~ys x =
  validate "linear" xs ys;
  linear_unchecked ~xs ~ys x

let inverse_monotone ~xs ~ys y =
  validate "inverse_monotone" xs ys;
  let n = Array.length xs in
  if ys.(0) >= y then Some xs.(0)
  else begin
    let rec find i =
      if i >= n then None
      else if ys.(i) >= y then begin
        let x0 = xs.(i - 1) and x1 = xs.(i) and y0 = ys.(i - 1) and y1 = ys.(i) in
        if y1 = y0 then Some x1 else Some (x0 +. ((y -. y0) /. (y1 -. y0) *. (x1 -. x0)))
      end
      else find (i + 1)
    in
    find 1
  end

let trapezoid ~xs ~ys =
  validate "trapezoid" xs ys;
  let acc = ref 0. in
  for i = 0 to Array.length xs - 2 do
    acc := !acc +. (0.5 *. (ys.(i) +. ys.(i + 1)) *. (xs.(i + 1) -. xs.(i)))
  done;
  !acc

let trapezoid_between ~xs ~ys ~lo ~hi =
  validate "trapezoid_between" xs ys;
  let n = Array.length xs in
  let lo = Float.max lo xs.(0) and hi = Float.min hi xs.(n - 1) in
  if hi <= lo then 0.
  else begin
    let value x = linear_unchecked ~xs ~ys x in
    let acc = ref 0. in
    let prev_x = ref lo and prev_y = ref (value lo) in
    for i = 0 to n - 1 do
      if xs.(i) > lo && xs.(i) < hi then begin
        acc := !acc +. (0.5 *. (!prev_y +. ys.(i)) *. (xs.(i) -. !prev_x));
        prev_x := xs.(i);
        prev_y := ys.(i)
      end
    done;
    acc := !acc +. (0.5 *. (!prev_y +. value hi) *. (hi -. !prev_x));
    !acc
  end
