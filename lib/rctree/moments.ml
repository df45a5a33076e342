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

let sums_for_output t ~output ~rkk ~rke ~on_path =
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

let times t ~output =
  if output < 0 || output >= Tree.node_count t then invalid_arg "Moments.times: unknown node";
  let rkk = Path.all_resistances_to_root t in
  let rke = Path.shared_resistances_to t output in
  let on_path = Path.on_path_to t output in
  sums_for_output t ~output ~rkk ~rke ~on_path

let times_direct t ~output =
  if output < 0 || output >= Tree.node_count t then invalid_arg "Moments.times_direct: unknown node";
  let n = Tree.node_count t in
  let rkk = Array.init n (fun id -> Path.resistance_to_root t id) in
  let rke = Array.init n (fun id -> Path.shared_resistance t id output) in
  let on_path =
    (* recompute independently of Path.on_path_to: a node is on the path
       iff its shared resistance with the output equals its own R_kk and
       it is an ancestor-or-self of the output *)
    let marks = Array.make n false in
    let rec up id =
      marks.(id) <- true;
      match Tree.parent t id with Some p -> up p | None -> ()
    in
    up output;
    marks
  in
  sums_for_output t ~output ~rkk ~rke ~on_path

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
   at shared resistance a). *)
let all_sums t =
  let n = Tree.node_count t in
  let rkk = Path.all_resistances_to_root t in
  (* subtree capacitance, including each subtree's own edge line caps *)
  let c_sub =
    Array.init n (fun id ->
        Tree.capacitance t id
        +. (match Tree.element t id with Some e -> Element.capacitance e | None -> 0.))
  in
  for id = n - 1 downto 1 do
    match Tree.parent t id with
    | Some p -> c_sub.(p) <- c_sub.(p) +. c_sub.(id)
    | None -> ()
  done;
  let tp = t_p t in
  let td = Array.make n 0. in
  let s2 = Array.make n 0. in
  (* root: every capacitor shares nothing with the input *)
  td.(0) <- 0.;
  s2.(0) <- 0.;
  for id = 1 to n - 1 do
    match (Tree.parent t id, Tree.element t id) with
    | Some p, Some elem ->
        let a = rkk.(p) in
        let r = Element.resistance elem in
        let c_line = Element.capacitance elem in
        let c_beyond = c_sub.(id) -. c_line in
        let line_td_new, line_s2_new =
          match elem with
          | Element.Line _ ->
              (line_first_moment ~a ~r ~c:c_line, line_second_moment ~a ~r ~c:c_line)
          | Element.Resistor _ | Element.Capacitor _ -> (0., 0.)
        in
        td.(id) <- td.(p) +. (r *. c_beyond) +. line_td_new -. (a *. c_line);
        s2.(id) <-
          s2.(p)
          +. (((2. *. r *. a) +. (r *. r)) *. c_beyond)
          +. line_s2_new -. (a *. a *. c_line)
    | _, _ -> ()
  done;
  (* T_Re = S2 / R_ee, in place *)
  for id = 0 to n - 1 do
    s2.(id) <- (if rkk.(id) = 0. then 0. else s2.(id) /. rkk.(id))
  done;
  (tp, td, s2)

let all_times t =
  let t_p, td, tr = all_sums t in
  Array.init (Array.length td) (fun id -> Times.make ~t_p ~t_d:td.(id) ~t_r:tr.(id))
