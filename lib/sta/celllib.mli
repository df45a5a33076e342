(** Logic-cell library for the timing engine.

    A cell is characterized the way the paper models the driving
    inverter of Fig. 2: an intrinsic switching delay, a linearized
    output (driver) resistance, parasitic output capacitance, and a
    load capacitance per input pin.  Interconnect delay — the paper's
    subject — is handled separately by {!Netdelay}. *)

type cell = {
  cell_name : string;
  inputs : (string * float) list;  (** pin name, pin capacitance (F) *)
  output : string;  (** output pin name *)
  intrinsic_delay : float;  (** seconds, input threshold to output start *)
  delay_per_farad : float;
      (** load-dependent term of the cell delay (s/F): the k-factor of
          classic datasheet models.  The total cell delay used by the
          engine is [intrinsic + per_farad × C_load], with [C_load] the
          total capacitance of the driven net (wire + pins). *)
  drive : Tech.Mosfet.driver;
}

val make :
  name:string ->
  inputs:(string * float) list ->
  ?output:string ->
  intrinsic_delay:float ->
  ?delay_per_farad:float ->
  drive:Tech.Mosfet.driver ->
  unit ->
  cell
(** Default output pin name is ["y"].  Raises [Invalid_argument] on an
    empty or duplicated input list, negative values, or an input pin
    that collides with the output pin. *)

val input_capacitance : cell -> string -> float
(** Raises [Not_found] for an unknown input pin. *)

val has_input : cell -> string -> bool

val input_index : cell -> string -> int option
(** Position of the input pin in [inputs]. *)

type library

val library : cell list -> library
(** Raises [Invalid_argument] on duplicate cell names. *)

val find : library -> string -> cell
(** Raises [Not_found]. *)

val cells : library -> cell list

val default : Tech.Process.t -> library
(** A small NMOS-flavoured library derived from process parameters:
    [inv1] / [inv4] (1× and 4× inverters), [nand2], [nor2], [buf4]
    (a superbuffer matching the paper's Section V driver numbers in the
    default process). *)
