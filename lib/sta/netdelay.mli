(** Interconnect delay of one net, through the paper's machinery.

    Every net is the RC tree of Fig. 2: the driver's linearized
    resistance at the root, its output parasitics, the wire shape, and
    the load-pin gate capacitances at the sinks.  Per-sink delay then
    comes either as an Elmore estimate or as a Penfield–Rubinstein
    [(t_min, t_max)] window.

    The engine ({!figures}, {!all_figures}) builds no {!Rctree.Tree}: it
    lays each net's tree out node by node in flat arrays reused from net
    to net and runs {!Rctree.Moments.sums_into} over them, the pass
    {!Rctree.Moments.all_sums} runs on a built tree, so its answers are
    bit-identical to {!Rctree.Analysis} on {!tree_of_net} (tested).
    Wire values go through {!Rctree.Element}'s checked constructors and
    its line-folding rule, as {!Rctree.Tree.Builder} does.
    {!tree_of_net} stays for reports and as that oracle. *)

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
      (** Elmore delay to a loadless net's far end: its [T_P], since
          every node lies on the path there, equal bit for bit to the
          per-output [Rctree.Moments.elmore]; [0] when the net has
          loads *)
  load : float;  (** {!load_capacitance} *)
}

val figures : ?threshold:float -> Design.t -> Design.net -> figures
(** Everything the timing engine reads about one net, from one flat
    moments pass over the net as given; the design supplies its cells.
    {!sink_delays}, {!worst_window} and {!load_capacitance} are views of
    it.  Raises [Invalid_argument] on a negative or non-finite value,
    or on figures that overflow; the message starts [net "<name>": ]. *)

type table = {
  elmore : float array;  (** per load id (see {!Design.first_load}) *)
  t_min : float array;  (** per load id *)
  t_max : float array;  (** per load id *)
  far_min : float array;  (** per net id: a loadless net's [far_end]; else 0 *)
  far_max : float array;
  far_elmore : float array;
  loads : float array;  (** per net id: its {!load_capacitance} *)
}

val all_figures : ?threshold:float -> Design.t -> table
(** {!figures} of every net, serially, in net-id order, into flat
    arrays: what {!Analysis.run} reads.  Same per-net routine as
    {!figures}, reading the design's ids instead of names. *)

val sink_delays : ?threshold:float -> Design.t -> Design.net -> sink_delay list
(** Threshold defaults to 0.5.  Order follows the net's load list. *)

val all_sink_delays :
  ?pool:Parallel.Pool.t -> ?threshold:float -> Design.t -> (string * sink_delay list) list
(** {!sink_delays} of every net of the design, in [Design.nets] order,
    read off {!all_figures}.  [pool] is accepted and ignored: a net's
    figures cost less than a fan-out's hand-off; the parameter stays
    only so existing callers compile. *)

val load_capacitance : Design.t -> Design.net -> float
(** Total capacitance the net's driver must charge: wire plus every
    load pin (the driver's own output parasitics excluded — they are
    part of the driver model, not the load). *)

val worst_window : ?threshold:float -> Design.t -> Design.net -> float * float
(** Componentwise: [(min over sinks of t_min, max over sinks of
    t_max)]; for a net with no loads, the window at the far end of its
    wire. *)
