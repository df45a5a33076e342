(** Primitive RC-tree elements.

    The paper builds every tree from one primitive, the uniform RC line
    [URC R C]; a lumped resistor is [URC R 0] and a lumped capacitor is
    [URC 0 C].  This module keeps the three cases distinct so that the
    rest of the code can pattern-match on them, while {!line} performs
    the paper's reduction. *)

type t =
  | Resistor of float  (** series resistance, ohms *)
  | Capacitor of float  (** capacitance to ground, farads *)
  | Line of { resistance : float; capacitance : float }
      (** uniform distributed RC line; total resistance and total
          capacitance *)

val resistor : float -> t
(** Raises [Invalid_argument] when negative. *)

val capacitor : float -> t
(** Raises [Invalid_argument] when negative. *)

val line : resistance:float -> capacitance:float -> t
(** A uniform RC line.  Degenerate values reduce as in the paper:
    zero capacitance yields [Resistor], zero resistance yields
    [Capacitor].  Raises [Invalid_argument] when either is negative. *)

val resistance : t -> float
(** Total series resistance (0 for a capacitor). *)

val capacitance : t -> float
(** Total capacitance to ground (0 for a resistor). *)

val is_distributed : t -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
