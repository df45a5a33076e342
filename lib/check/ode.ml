open Numeric

type scheme = Backward_euler | Trapezoidal

let m_steppers = Obs.Counter.make "ode.steppers"
let m_steps = Obs.Counter.make "ode.steps"

type stepper = {
  scheme : scheme;
  lhs : Lu.factor; (* factored iteration matrix *)
  c_over_dt : Matrix.t; (* C/dt (BE) or 2C/dt (trapezoidal) *)
  g : Matrix.t;
  b : Vector.t;
  dt : float;
}

let check_shapes name c g b dt =
  let n = Matrix.rows c in
  if Matrix.cols c <> n || Matrix.rows g <> n || Matrix.cols g <> n || Vector.dim b <> n then
    invalid_arg ("Ode." ^ name ^ ": inconsistent shapes");
  if dt <= 0. then invalid_arg ("Ode." ^ name ^ ": dt must be positive")

let backward_euler ~c ~g ~b ~dt =
  check_shapes "backward_euler" c g b dt;
  Obs.Counter.incr m_steppers;
  let c_over_dt = Matrix.scale (1. /. dt) c in
  let lhs = Lu.decompose (Matrix.add c_over_dt g) in
  { scheme = Backward_euler; lhs; c_over_dt; g; b; dt }

let trapezoidal ~c ~g ~b ~dt =
  check_shapes "trapezoidal" c g b dt;
  Obs.Counter.incr m_steppers;
  let c_over_dt = Matrix.scale (2. /. dt) c in
  let lhs = Lu.decompose (Matrix.add c_over_dt g) in
  { scheme = Trapezoidal; lhs; c_over_dt; g; b; dt }

let step s ~x ~u_now ~u_next =
  Obs.Counter.incr m_steps;
  let rhs =
    match s.scheme with
    | Backward_euler ->
        let r = Matrix.mul_vec s.c_over_dt x in
        Vector.axpy u_next s.b r;
        r
    | Trapezoidal ->
        (* (2C/dt - G) x_n + b (u_n + u_{n+1}) *)
        let r = Matrix.mul_vec s.c_over_dt x in
        let gx = Matrix.mul_vec s.g x in
        Vector.axpy (-1.) gx r;
        Vector.axpy (u_now +. u_next) s.b r;
        r
  in
  Lu.solve_factored s.lhs rhs

let dt s = s.dt

let simulate s ~x0 ~u ~t_end =
  if t_end < 0. then invalid_arg "Ode.simulate: t_end < 0";
  let rec loop t x acc =
    if t >= t_end then List.rev acc
    else begin
      let t' = t +. s.dt in
      let x' = step s ~x ~u_now:(u t) ~u_next:(u t') in
      loop t' x' ((t', x') :: acc)
    end
  in
  loop 0. x0 [ (0., x0) ]
