(** Elaboration: a parsed {!Deck} becomes an {!Rctree.Tree}.

    The deck must describe a legal RC tree:
    - exactly one source card, with one terminal grounded — the other
      terminal is the tree input;
    - resistor and line cards connect two non-ground nodes and must form
      a tree rooted at the input (no cycles, nothing floating);
    - capacitor cards have exactly one grounded terminal;
    - every R, C and U value is finite and non-negative.

    Outputs come from the deck's [.output] directives; when there are
    none, every leaf node becomes an output (a convenience for small
    hand-written decks). *)

type error =
  | No_source
  | Multiple_sources of string list
  | Source_not_grounded of string
  | Element_to_ground of string  (** an R or U card touches ground *)
  | Capacitor_not_grounded of string
  | Cycle of string  (** name of the edge card closing the cycle *)
  | Disconnected of string list  (** nodes unreachable from the input *)
  | Unknown_output of string
  | Bad_value of string
      (** an R, C or U card with a negative or non-finite value: the
          card's letter and name, e.g. ["R1"] *)

val to_tree : Deck.t -> (Rctree.Tree.t, error) result

val to_tree_exn : Deck.t -> Rctree.Tree.t
(** Raises [Invalid_argument] with {!error_to_string}. *)

val error_to_string : error -> string
