type engine = [ `Cg | `Dense ]

(* The Jacobi preconditioner: the diagonal of (C/dt + G), summed as the
   matrix-free operator forms it (each row's own terms, then its
   children's conductances from the highest row down), from the tree's
   own arrays since the operator keeps its conductances private. *)
let diagonal tree op =
  let { Rctree.Tree.parents; resistance; _ } = Rctree.Tree.flat tree in
  let c_over_dt = Circuit.Large.c_over_dt op in
  let rows = Array.length c_over_dt in
  let g r = 1. /. resistance.(r + 1) in
  let below = Array.make rows 0. in
  for r = rows - 1 downto 0 do
    let p = parents.(r + 1) - 1 in
    if p <> -1 then below.(p) <- below.(p) +. g r
  done;
  Array.init rows (fun r -> c_over_dt.(r) +. g r +. below.(r))

let run engine ~integration tree ~dt ~u ~record =
  let samples = Array.length u in
  let op =
    Circuit.Large.operator tree
      ~dt:(match integration with Circuit.Large.Backward_euler -> dt | Trapezoidal -> dt /. 2.)
  in
  let record_rows = Array.map (Circuit.Large.row op) record in
  let out = Array.map (fun _ -> Array.make samples 0.) record in
  let x = ref (Array.make (Circuit.Large.node_count op) 0.) in
  let save k =
    Array.iteri (fun j r -> out.(j).(k) <- (if r < 0 then u.(k) else !x.(r))) record_rows
  in
  (* [advance k] moves the state from sample [k - 1] to sample [k] *)
  let advance =
    match engine with
    | `Dense ->
        let sys = Circuit.Mna.of_tree tree in
        let c = Circuit.Mna.c_matrix sys and g = sys.Circuit.Mna.g and b = sys.Circuit.Mna.b in
        let stepper =
          match integration with
          | Backward_euler -> Ode.backward_euler ~c ~g ~b ~dt
          | Trapezoidal -> Ode.trapezoidal ~c ~g ~b ~dt
        in
        fun k -> x := Ode.step stepper ~x:!x ~u_now:u.(k - 1) ~u_next:u.(k)
    | `Cg ->
        (* the production right-hand side and update, operation for
           operation; only the solve differs *)
        let diag = diagonal tree op and c_over_dt = Circuit.Large.c_over_dt op in
        let sources = Circuit.Large.source_rows op in
        fun k ->
          let x_n = !x in
          let b = Array.mapi (fun r c -> c *. x_n.(r)) c_over_dt in
          let u_src =
            match integration with
            | Backward_euler -> u.(k)
            | Trapezoidal -> 0.5 *. (u.(k - 1) +. u.(k))
          in
          List.iter (fun (r, g) -> b.(r) <- b.(r) +. (g *. u_src)) sources;
          let w = fst (Cg.solve ~diag_precondition:diag ~mul:(Circuit.Large.apply op) b) in
          x :=
            match integration with
            | Backward_euler -> w
            | Trapezoidal ->
                (* x_{n+1} = 2w - x_n, flushed below 2 Float.min_float *)
                Array.mapi
                  (fun r w ->
                    let v = (2. *. w) -. x_n.(r) in
                    if Float.abs v < 0x1p-1021 then 0. else v)
                  w
  in
  save 0;
  for k = 1 to samples - 1 do
    advance k;
    save k
  done;
  out

(* the grid and the messages of [Circuit.Transient.simulate], so that
   [rcdelay transient --solver] prints the same for every engine *)
let simulate engine ?(integration = Circuit.Large.Trapezoidal) ?nodes tree ~dt ~t_end ~input =
  let recorded, times = Circuit.Transient.grid ?nodes tree ~dt ~t_end in
  let out = run engine ~integration tree ~dt ~u:(Array.map input times) ~record:recorded in
  Array.to_list
    (Array.mapi (fun j node -> (node, Circuit.Waveform.create ~times ~values:out.(j))) recorded)
