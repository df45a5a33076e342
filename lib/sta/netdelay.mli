(** Interconnect delay of one net, through the paper's machinery.

    For every net the engine builds the RC tree of Fig. 2: the driver's
    linearized resistance at the root, its output parasitics, the wire
    shape, and the load-pin gate capacitances at the sinks.  Per-sink
    delay then comes either as an Elmore estimate or as a
    Penfield–Rubinstein [(t_min, t_max)] window. *)

val tree_of_net : Design.t -> Design.net -> Rctree.Tree.t
(** Sink nodes are marked as outputs labelled ["instance/pin"], in
    load-list order.  When
    the net has no loads a single output labelled ["<net>.end"] marks
    the far end of the wire (or the driver node for [Direct] wires). *)

val sink_label : Design.pin -> string

type sink_delay = {
  sink : Design.pin;
  elmore : float;
  window : float * float;  (** [(t_min, t_max)] at the chosen threshold *)
}

type figures = {
  sinks : sink_delay array;  (** one per load, in load-list order *)
  far_end : float * float;
      (** [(t_min, t_max)] at the far end of a loadless net's wire;
          [(0, 0)] when the net has loads *)
  far_end_elmore : float Lazy.t;
      (** Elmore delay to a loadless net's far end by the per-output
          reference [Rctree.Moments.elmore]; forced only when asked for *)
  load : float;  (** {!load_capacitance} *)
}

val figures : ?threshold:float -> Design.t -> Design.net -> figures
(** Everything the timing engine reads about one net, from one RC tree
    and one all-node moments pass.  {!sink_delays}, {!worst_window}
    and {!load_capacitance} are views of it. *)

val sink_delays : ?threshold:float -> Design.t -> Design.net -> sink_delay list
(** Threshold defaults to 0.5.  Order follows the net's load list. *)

val all_sink_delays :
  ?pool:Parallel.Pool.t -> ?threshold:float -> Design.t -> (string * sink_delay list) list
(** {!sink_delays} of every net of the design, one independent RC-tree
    analysis per net run through the pool (default: the shared
    {!Parallel.Pool.get}).  Order follows [Design.nets]; results are
    identical to the serial per-net calls. *)

val load_capacitance : Design.t -> Design.net -> float
(** Total capacitance the net's driver must charge: wire plus every
    load pin (the driver's own output parasitics excluded — they are
    part of the driver model, not the load). *)

val worst_window : ?threshold:float -> Design.t -> Design.net -> float * float
(** Componentwise: [(min over sinks of t_min, max over sinks of
    t_max)]; for a net with no loads, the window at the far end of its
    wire. *)
