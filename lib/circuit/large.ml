let m_solves = Obs.Counter.make "large.step_responses"
let m_timesteps = Obs.Counter.make "large.timesteps"

type integration = Backward_euler | Trapezoidal

type operator = {
  conductance : float array; (* per row: 1/R of the edge above it *)
  parent_row : int array; (* row of the parent; -1 when the parent is the driven input *)
  c_over_dt : float array;
}

(* The input is node 0 and ids are parent-first, so node [id] is row
   [id - 1] and the input's row is -1. *)

let operator ?cap_floor tree ~dt =
  if dt <= 0. then invalid_arg "Large.operator: dt must be positive";
  if Rctree.Tree.has_distributed_lines tree then
    invalid_arg "Large.operator: discretize distributed lines first";
  let floor =
    match cap_floor with
    | Some f ->
        if f < 0. then invalid_arg "Large.operator: cap_floor must be non-negative";
        f
    | None ->
        let total = Rctree.Tree.total_capacitance tree in
        if total > 0. then 1e-12 *. total else 1e-18
  in
  let rows = Rctree.Tree.node_count tree - 1 in
  let { Rctree.Tree.parents; resistance; capacitance } = Rctree.Tree.flat tree in
  let conductance = Array.make rows 0. in
  let parent_row = Array.make rows (-1) in
  let c_over_dt = Array.make rows 0. in
  let reject id what =
    invalid_arg (Printf.sprintf "Large.operator: node %S %s" (Rctree.Tree.node_name tree id) what)
  in
  for row = 0 to rows - 1 do
    let id = row + 1 in
    let r = resistance.(id) in
    if not (r > 0.) then reject id "connects through zero resistance";
    let g = 1. /. r and c = Float.max floor capacitance.(id) /. dt in
    (* a non-finite entry would turn every later sample into NaN *)
    if not (Float.is_finite g) then reject id "has a resistance too small for a finite 1/R";
    if not (Float.is_finite c) then reject id "has a capacitance too large for a finite C/dt";
    conductance.(row) <- g;
    c_over_dt.(row) <- c;
    parent_row.(row) <- parents.(id) - 1
  done;
  { conductance; parent_row; c_over_dt }

let node_count op = Array.length op.conductance

let row op node =
  if node < 0 || node > node_count op then invalid_arg "Large.row: unknown node";
  node - 1

let c_over_dt op = op.c_over_dt

(* a loop, not a filter over [List.init rows]: [run] calls this once
   per simulation, and a million-row list is 24 MB of garbage *)
let source_rows op =
  let acc = ref [] in
  for r = node_count op - 1 downto 0 do
    if op.parent_row.(r) = -1 then acc := (r, op.conductance.(r)) :: !acc
  done;
  !acc

(* y = (C/dt + G) x into a caller buffer, walking edges instead of a matrix *)
let apply_into op x ~into:y =
  let rows = Array.length op.conductance in
  if Array.length x <> rows || Array.length y <> rows then
    invalid_arg "Large.apply: dimension mismatch";
  for r = 0 to rows - 1 do
    (* the edge above [r]: current g*(x_r - x_parent) *)
    let p = op.parent_row.(r) in
    let xp = if p = -1 then 0. else x.(p) in
    y.(r) <- (op.c_over_dt.(r) *. x.(r)) +. (op.conductance.(r) *. (x.(r) -. xp))
  done;
  (* the same edges seen from the parent *)
  for r = rows - 1 downto 0 do
    let p = op.parent_row.(r) in
    if p <> -1 then y.(p) <- y.(p) +. (op.conductance.(r) *. (x.(p) -. x.(r)))
  done

let apply op x =
  let y = Array.make (Array.length op.conductance) 0. in
  apply_into op x ~into:y;
  y

(* leaf-first elimination of (C/dt + G): the builder numbers parents
   before children, so [parent_row] already satisfies Tree_ldl's
   elimination-order contract; the grounded form keeps the pivots of a
   stiff edge over a small capacitance accurate *)
let factor op =
  Numeric.Tree_ldl.factor_grounded ~parent:op.parent_row ~conductance:op.conductance
    ~shunt:op.c_over_dt

let max_grid_values = 1 lsl 26

let check_grid ~who ~dt ~t_end ~traces =
  if not (dt > 0.) then invalid_arg (who ^ ": dt must be positive");
  if not (t_end >= 0.) then invalid_arg (who ^ ": t_end must be non-negative");
  (* in floats, so a huge or NaN step count cannot overflow an int *)
  let steps = t_end /. dt in
  if not ((Float.ceil steps +. 1.) *. float_of_int (traces + 1) <= float_of_int max_grid_values)
  then
    invalid_arg
      (Printf.sprintf
         "%s: t_end/dt = %g steps with %d recorded traces exceeds the limit of %d recorded \
          values (Large.max_grid_values)"
         who steps traces max_grid_values)

let run ?cap_floor ~integration tree ~dt ~u ~record ~into =
  let samples = Array.length u in
  if samples = 0 then invalid_arg "Large.run: empty input";
  let op =
    operator ?cap_floor tree
      ~dt:(match integration with Backward_euler -> dt | Trapezoidal -> dt /. 2.)
  in
  let m = Array.length record in
  Array.iter
    (fun node ->
      if node < 0 || node > node_count op then invalid_arg "Large.run: unknown record node")
    record;
  (* [s] whole samples per block, as many as the first block holds;
     each block's need is at most s * m <= its length, so no product
     here can overflow *)
  let s =
    if Array.length into = 0 then 0 else if m = 0 then samples else Array.length into.(0) / m
  in
  if s = 0 then invalid_arg "Large.run: into holds no whole sample";
  let blocks = ((samples - 1) / s) + 1 in
  if Array.length into < blocks then
    invalid_arg "Large.run: into shorter than samples * recorded nodes";
  for b = 0 to blocks - 1 do
    if Array.length into.(b) < m * min s (samples - (b * s)) then
      invalid_arg "Large.run: into shorter than samples * recorded nodes"
  done;
  let rows = node_count op in
  let x = ref (Array.make rows 0.) in
  (* The record as maximal runs of consecutive nodes other than the
     input, [(first slot, first row, length)], so a run of rows is one
     blit; every node in id order is a single run.  The input's slots
     take [u]. *)
  let inputs = ref [] and runs = ref [] in
  let j = ref 0 in
  while !j < m do
    if record.(!j) = 0 then begin
      inputs := !j :: !inputs;
      incr j
    end
    else begin
      let start = !j in
      while !j + 1 < m && record.(!j + 1) = record.(!j) + 1 do
        incr j
      done;
      incr j;
      runs := (start, record.(start) - 1, !j - start) :: !runs
    end
  done;
  let inputs = Array.of_list !inputs and runs = Array.of_list !runs in
  (* sample k is one contiguous row of its block; plain loops, not
     closures, so nothing is allocated per step *)
  let record k =
    let x = !x and block = into.(k / s) and base = k mod s * m in
    for i = 0 to Array.length inputs - 1 do
      block.(base + inputs.(i)) <- u.(k)
    done;
    for i = 0 to Array.length runs - 1 do
      let j, row, len = runs.(i) in
      Array.blit x row block (base + j) len
    done
  in
  (* the operator is (C/dt' + G) with dt' = dt (backward Euler) or
     dt/2 (trapezoidal), so [c_over_dt] is C/dt or 2C/dt.
     Backward Euler: (C/dt + G) x_{n+1} = C/dt x_n + g u_{n+1}.
     Trapezoidal, in midpoint form: with A = 2C/dt + G,
     A x_{n+1} = (2C/dt - G) x_n + g (u_n + u_{n+1}) is, for
     x_{n+1} = 2w - x_n, A w = 2C/dt x_n + g (u_n + u_{n+1})/2.
     Either way the right-hand side is the [c_over_dt] diagonal times
     the state plus the source rows' [g u], with no G x product; the
     pass after each solve that finishes the state also leaves the
     next step's [c_over_dt x] in the spare buffer (zero for the
     discharged start). *)
  let f = factor op in
  let sources = Array.of_list (List.map fst (source_rows op)) in
  let c_x = ref (Array.make rows 0.) in
  (* [advance k] moves the state from sample [k - 1] to sample [k] *)
  let advance k =
    let x_now = !x and w = !c_x in
    let u_src =
      match integration with
      | Backward_euler -> u.(k)
      | Trapezoidal -> 0.5 *. (u.(k - 1) +. u.(k))
    in
    for i = 0 to Array.length sources - 1 do
      let r = sources.(i) in
      w.(r) <- w.(r) +. (op.conductance.(r) *. u_src)
    done;
    Numeric.Tree_ldl.solve_in_place f w;
    (match integration with
    | Backward_euler ->
        for r = 0 to rows - 1 do
          x_now.(r) <- op.c_over_dt.(r) *. w.(r)
        done
    | Trapezoidal ->
        for r = 0 to rows - 1 do
          let v = (2. *. w.(r)) -. x_now.(r) in
          (* flushed below 2 Float.min_float (0x1p-1021): the solve
             flushes w below Float.min_float, so a state under twice
             that could get w = 0 and come back as -x_n, ringing at
             +-3e-308 instead of decaying; at or above it, a step that
             keeps its sign has w >= x_n/2, which the solve keeps *)
          let v = if Float.abs v < 0x1p-1021 then 0. else v in
          w.(r) <- v;
          x_now.(r) <- op.c_over_dt.(r) *. v
        done);
    c_x := x_now;
    x := w
  in
  record 0;
  for k = 1 to samples - 1 do
    advance k;
    Obs.Counter.incr m_timesteps;
    record k
  done

let step_response ?cap_floor tree ~dt ~t_end ~outputs =
  check_grid ~who:"Large.step_response" ~dt ~t_end ~traces:(List.length outputs);
  Obs.Span.with_ ~name:"circuit.large" @@ fun () ->
  Obs.Counter.incr m_solves;
  let samples = int_of_float (Float.ceil (t_end /. dt)) + 1 in
  (* not Array.init: its closure would box one float per sample *)
  let times = Array.make samples 0. in
  for k = 1 to samples - 1 do
    times.(k) <- float_of_int k *. dt
  done;
  let record = Array.of_list outputs in
  let m = Array.length record in
  let into = Array.make (samples * m) 0. in
  run ?cap_floor ~integration:Backward_euler tree ~dt ~u:(Array.make samples 1.) ~record
    ~into:[| into |];
  List.mapi
    (fun j node ->
      let values = Array.make samples 0. in
      for k = 0 to samples - 1 do
        values.(k) <- into.((k * m) + j)
      done;
      (node, Waveform.create ~times ~values))
    outputs

let rc_chain ~sections ~r ~c =
  if sections < 1 then invalid_arg "Large.rc_chain: need at least one section";
  let b = Rctree.Tree.Builder.create ~name:(Printf.sprintf "chain-%d" sections) () in
  let at = ref (Rctree.Tree.Builder.input b) in
  for _ = 1 to sections do
    let node = Rctree.Tree.Builder.add_resistor b ~parent:!at r in
    Rctree.Tree.Builder.add_capacitance b node c;
    at := node
  done;
  Rctree.Tree.Builder.mark_output b ~label:"out" !at;
  Rctree.Tree.Builder.finish b
