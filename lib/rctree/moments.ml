(* Contribution of one distributed line to the three sums.
   [a] is the path resistance at the line's input end. *)
let line_first_moment ~a ~r ~c = c *. (a +. (r /. 2.))
let line_second_moment ~a ~r ~c = c *. ((a *. a) +. (a *. r) +. (r *. r /. 3.))

let t_p t =
  let rkk = Path.all_resistances_to_root t in
  Tree.fold_nodes t ~init:0. ~f:(fun acc id ->
      let lumped = Tree.capacitance t id *. rkk.(id) in
      let line =
        match Tree.element t id with
        | Some (Element.Line { resistance; capacitance }) ->
            let a = match Tree.parent t id with Some p -> rkk.(p) | None -> 0. in
            line_first_moment ~a ~r:resistance ~c:capacitance
        | Some (Element.Resistor _) | Some (Element.Capacitor _) | None -> 0.
      in
      acc +. lumped +. line)

let times t ~output =
  if output < 0 || output >= Tree.node_count t then invalid_arg "Moments.times: unknown node";
  let rkk = Path.all_resistances_to_root t in
  let rke = Path.shared_resistances_to t output in
  let on_path = Path.on_path_to t output in
  let first = ref 0. and second = ref 0. and tp = ref 0. in
  Tree.iter_nodes t ~f:(fun id ->
      let ck = Tree.capacitance t id in
      if ck > 0. then begin
        tp := !tp +. (ck *. rkk.(id));
        first := !first +. (ck *. rke.(id));
        second := !second +. (ck *. rke.(id) *. rke.(id))
      end;
      match Tree.element t id with
      | Some (Element.Line { resistance = r; capacitance = c }) ->
          let a = match Tree.parent t id with Some p -> rkk.(p) | None -> 0. in
          tp := !tp +. line_first_moment ~a ~r ~c;
          if on_path.(id) then begin
            first := !first +. line_first_moment ~a ~r ~c;
            second := !second +. line_second_moment ~a ~r ~c
          end
          else begin
            first := !first +. (c *. rke.(id));
            second := !second +. (c *. rke.(id) *. rke.(id))
          end
      | Some (Element.Resistor _) | Some (Element.Capacitor _) | None -> ());
  let ree = rkk.(output) in
  let t_r = if ree = 0. then 0. else !second /. ree in
  Times.make ~t_p:!tp ~t_d:!first ~t_r

let elmore t ~output = (times t ~output).Times.t_d

let quadratic_sum t ~output =
  let ts = times t ~output in
  ts.Times.t_r *. Path.resistance_to_root t output

(* All-outputs pass.  Walking from a node e to its child e' through an
   edge of resistance R, every capacitor in the child's subtree gains R
   in its shared resistance (and the edge's own distributed capacitance
   gains a partial amount):

     T_D(e')       = T_D(e)  + R (C_sub - C_line) + C_line (a + R/2) - C_line a
     S2(e')        = S2(e)   + (2 R a + R^2)(C_sub - C_line)
                             + C_line ((a + ..)^2 integral - a^2)

   where a = R_ee is the path resistance of the parent and C_line the
   crossed edge's own distributed capacitance (counted in S2(e)/T_D(e)
   at shared resistance a).  [t_r] holds C_sub until the top-down loop
   overwrites a node's entry with its S2, after the last read of it. *)
let sums_into ~n ~parent ~r ~c ~cl ~rkk ~t_d ~t_r =
  let line id = cl.(id) <> 0. in
  rkk.(0) <- 0.;
  for id = 1 to n - 1 do
    rkk.(id) <- rkk.(parent.(id)) +. r.(id)
  done;
  let t_p = ref 0. in
  for id = 0 to n - 1 do
    let on_line =
      if id > 0 && line id then line_first_moment ~a:rkk.(parent.(id)) ~r:r.(id) ~c:cl.(id)
      else 0.
    in
    t_p := !t_p +. (c.(id) *. rkk.(id)) +. on_line
  done;
  (* subtree capacitance, including each subtree's own edge line caps *)
  for id = 0 to n - 1 do
    t_r.(id) <- c.(id) +. cl.(id)
  done;
  for id = n - 1 downto 1 do
    t_r.(parent.(id)) <- t_r.(parent.(id)) +. t_r.(id)
  done;
  (* root: every capacitor shares nothing with the input *)
  t_d.(0) <- 0.;
  t_r.(0) <- 0.;
  for id = 1 to n - 1 do
    let p = parent.(id) in
    let a = rkk.(p) and r = r.(id) and c_line = cl.(id) in
    let c_beyond = t_r.(id) -. c_line in
    let line = line id in
    let line_td_new = if line then line_first_moment ~a ~r ~c:c_line else 0. in
    let line_s2_new = if line then line_second_moment ~a ~r ~c:c_line else 0. in
    t_d.(id) <- t_d.(p) +. (r *. c_beyond) +. line_td_new -. (a *. c_line);
    t_r.(id) <-
      t_r.(p) +. (((2. *. r *. a) +. (r *. r)) *. c_beyond) +. line_s2_new -. (a *. a *. c_line)
  done;
  (* T_Re = S2 / R_ee, in place *)
  for id = 0 to n - 1 do
    t_r.(id) <- (if rkk.(id) = 0. then 0. else t_r.(id) /. rkk.(id))
  done;
  !t_p

let all_sums t =
  let n = Tree.node_count t and { Tree.parents; resistance; capacitance } = Tree.flat t in
  let cl = match Tree.line_capacitances t with [||] -> Array.make n 0. | cl -> cl in
  let rkk = Array.make n 0. and t_d = Array.make n 0. and t_r = Array.make n 0. in
  let tp = sums_into ~n ~parent:parents ~r:resistance ~c:capacitance ~cl ~rkk ~t_d ~t_r in
  (tp, t_d, t_r)

let all_times t =
  let t_p, td, tr = all_sums t in
  Array.init (Array.length td) (fun id -> Times.make ~t_p ~t_d:td.(id) ~t_r:tr.(id))
