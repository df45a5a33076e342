(** Fixed-step implicit integrators for the linear ODE systems produced
    by RC networks:

    {v C x'(t) = -G x(t) + b u(t) v}

    with constant matrices [C] (capacitance, diagonal-dominant, possibly
    singular only when a node carries no capacitance — callers add a
    floor capacitance) and [G] (conductance), input waveform [u].

    Both methods factor their iteration matrix once, so a full transient
    costs one LU decomposition plus one triangular solve per step.  The
    dense oracle stepper ({!Stepper}'s [`Dense]) steps the MNA system
    with them; trapezoidal is taken in the [(2C/dt - G)] form, not the
    production stepper's midpoint form. *)


type stepper

val backward_euler : c:Matrix.t -> g:Matrix.t -> b:Vector.t -> dt:float -> stepper
(** First-order, L-stable.  Solves [(C/dt + G) x_{n+1} = C/dt x_n + b u_{n+1}]. *)

val trapezoidal : c:Matrix.t -> g:Matrix.t -> b:Vector.t -> dt:float -> stepper
(** Second-order, A-stable (the SPICE default).  Solves
    [(C/(dt/2) + G) x_{n+1} = (C/(dt/2) - G) x_n + b (u_n + u_{n+1})]. *)

val step : stepper -> x:Vector.t -> u_now:float -> u_next:float -> Vector.t
(** Advance one time step.  [u_now] is the input at the current time
    (ignored by backward Euler), [u_next] at the next. *)

val dt : stepper -> float
