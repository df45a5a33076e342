(** Gate-level designs: cell instances wired by nets that carry
    interconnect models.

    The paper's motivating situation (Fig. 1) is "an inverter drives
    several gates through long polysilicon wires"; a [net] here is
    exactly that: one driver, an RC interconnect shape, several load
    pins.  Wire shapes cover the common cases; arbitrary trees can be
    attached with [Tree_wire]. *)

type pin = { instance : string; pin : string }

type wire_shape =
  | Direct  (** ideal wire: no interconnect R or C *)
  | Lumped of float  (** a single capacitance to ground (metal wire) *)
  | Line of { resistance : float; capacitance : float }
      (** one distributed line; every load sits at the far end *)
  | Star of { resistance : float; capacitance : float }
      (** a separate distributed line from the driver to each load *)
  | Daisy of { resistance : float; capacitance : float }
      (** loads strung along one line at equal spacing, in declaration
          order; total line R and C given *)

type driver_kind =
  | Cell_output of pin
  | Primary of Tech.Mosfet.driver  (** driven from outside the design *)

type net = {
  net_name : string;
  driver : driver_kind;
  loads : pin list;  (** in declaration order *)
  wire : wire_shape;
}

type t
(** Instances and nets are numbered from 0 as they are added, and each
    name is hashed once, on its way in; every reference (a net's driver,
    its load pins) is resolved to those numbers by {!add_net}.  The
    timing engine reads the design through the numbers (see "Ids"
    below), so a run hashes no name. *)

val create : Celllib.library -> t

val library : t -> Celllib.library

val add_instance : t -> cell:string -> string -> unit
(** Raises [Invalid_argument] on an unknown cell or duplicate instance
    name. *)

val add_net : t -> ?wire:wire_shape -> driver:driver_kind -> loads:pin list -> string -> unit
(** Default wire is [Direct].  Raises [Invalid_argument] on duplicate
    net names, unknown instances/pins, a load pin used twice (here or
    on another net), or a cell output pin used as a load. *)

val mark_primary_output : t -> string -> unit
(** Marks a net as observed; primary outputs are the timing endpoints.
    Raises [Invalid_argument] on an unknown net. *)

val instances : t -> (string * Celllib.cell) list
(** Sorted by instance name. *)

val cell_of : t -> string -> Celllib.cell
(** Raises [Not_found]. *)

val nets : t -> net list
(** In declaration order. *)

val net : t -> string -> net
(** Raises [Not_found]. *)

val net_driven_by : t -> string -> net option
(** The net driven by the given instance's output, if any. *)

val nets_loading : t -> string -> net list
(** Nets with at least one load pin on the given instance. *)

val primary_outputs : t -> string list

val check : t -> string list
(** Residual problems, human-readable: instances with unconnected
    input pins, cell outputs driving nothing, nets with no loads.
    Empty means clean. *)

(** {2 Ids}

    The numbered view the timing engine reads.  Loads are numbered net
    by net in load-list order: net [i] owns loads [first_load d i] to
    [first_load d (i + 1) - 1]. *)

val instance_count : t -> int

val instance_id : t -> string -> int
(** Raises [Not_found]. *)

val instance_name : t -> int -> string
val instance_cell : t -> int -> Celllib.cell

val sorted_instance_ids : t -> int array
(** Instance ids in name order, as {!instances} lists them; shared, do
    not mutate. *)

val pin_load : t -> int -> int -> int
(** [pin_load d u k]: the load on input pin [k] (in [cell.inputs]
    order) of instance [u]; negative when no net loads it. *)

val driven_net : t -> int -> int
(** The net driven by the instance's output; negative for none. *)

val net_count : t -> int

val net_id : t -> string -> int
(** Raises [Not_found]. *)

val net_of_id : t -> int -> net

val driver_instance : t -> int -> int
(** The instance driving the net; [-1] for a primary input. *)

val first_load : t -> int -> int
(** Defined for [0 <= i <= net_count d]. *)

val load_instance : t -> int -> int
val load_pin : t -> int -> int
(** The input pin position of a load on its instance. *)

val load_net : t -> int -> int
(** The net owning the load, in O(log nets). *)

val primary_output_ids : t -> int list
(** {!primary_outputs} as net ids. *)
