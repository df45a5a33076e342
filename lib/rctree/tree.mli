(** General RC trees with named nodes and any number of outputs.

    A tree is built through {!Builder} and then frozen; every query
    below runs on the frozen form.  Structure:

    - node [0] is the input (driven by the step source);
    - every other node hangs off its parent through a series element
      (a {!Element.Resistor} or a distributed {!Element.Line});
    - every node may carry lumped capacitance to ground;
    - any subset of nodes may be marked as outputs.

    Distributed lines keep their identity (they are NOT pre-lumped);
    {!Moments} integrates over them exactly and {!Lump} discretizes
    them when a simulation needs a finite state space.

    The frozen form is flat: parallel arrays indexed by node id
    (parents, series resistances, capacitances, an edge-kind byte).
    Line capacitances and explicit names are stored only in a tree
    that has some; default names ["n<id>"] are never stored, and
    {!node_name} makes them on demand.  The children are indexed on
    the first {!children} call, which is safe from several domains. *)

type node_id = int

type t

module Builder : sig
  type tree := t
  type t

  val create : ?name:string -> unit -> t
  (** A builder holding just the input node. *)

  val input : t -> node_id
  (** The input node (always [0]). *)

  val add_node : t -> parent:node_id -> ?name:string -> Element.t -> node_id
  (** [add_node b ~parent elem] creates a node connected to [parent]
      through [elem].  A [Capacitor] element is rejected — capacitance
      belongs to nodes, use {!add_capacitance}.  Raises
      [Invalid_argument] on a bad parent or a capacitor element. *)

  val add_resistor : t -> parent:node_id -> ?name:string -> float -> node_id

  val add_line : t -> parent:node_id -> ?name:string -> float -> float -> node_id
  (** [add_line b ~parent r c] adds a distributed line edge — argument
      order follows the paper's [URC R C].  If the line degenerates to a pure
      capacitor (zero resistance) the capacitance is folded into
      [parent] and [parent] itself is returned. *)

  val add_capacitance : t -> node_id -> float -> unit
  (** Accumulates lumped capacitance at a node.
      Raises [Invalid_argument] when negative. *)

  val mark_output : t -> ?label:string -> node_id -> unit
  (** Marks a node as an output.  The default label is the node name.
      Idempotent per (label, node) pair, in O(1) amortised time; a node
      may carry several labels (several logical sinks landing on one
      electrical node).  Outputs keep their first-marking order. *)

  val finish : t -> tree
  (** Freeze.  The builder stays usable; later additions do not affect
      already-frozen trees. *)
end

val name : t -> string

type flat = private {
  parents : node_id array;  (** [-1] at the input *)
  resistance : float array;
      (** series resistance of the edge above the node, resistor or
          line; [0.] at the input *)
  capacitance : float array;  (** lumped, as {!capacitance} *)
}
(** The per-node arrays of a tree, indexed by node id. *)

val flat : t -> flat
(** The tree's own arrays, borrowed: do not mutate them.  For loops
    over every node, where {!parent} and {!element} would build an
    option per call; reading them allocates nothing. *)

val node_count : t -> int

val input : t -> node_id

val parent : t -> node_id -> node_id option
(** [None] exactly for the input node. *)

val element : t -> node_id -> Element.t option
(** Series element between a node and its parent; [None] for the input. *)

val capacitance : t -> node_id -> float
(** Lumped capacitance at the node (line capacitance not included). *)

val children : t -> node_id -> node_id list

val node_name : t -> node_id -> string

val find_node : t -> string -> node_id option

val outputs : t -> (string * node_id) list
(** In marking order. *)

val output_named : t -> string -> node_id
(** Raises [Not_found]. *)

val is_output : t -> node_id -> bool

val depth : t -> node_id -> int
(** Edges between the node and the input. *)

val total_capacitance : t -> float
(** Lumped plus distributed. *)

val total_resistance : t -> float
(** Sum of all series resistances in the tree. *)

val has_distributed_lines : t -> bool

val fold_nodes : t -> init:'a -> f:('a -> node_id -> 'a) -> 'a
(** Top-down (parents before children). *)

val iter_nodes : t -> f:(node_id -> unit) -> unit

val pp : Format.formatter -> t -> unit
(** Indented structural dump, one line per node in preorder, two
    spaces more per level.  Indentation stops growing at depth 32;
    deeper lines keep it and state their depth, [\[depth d\]], before
    the node.  Linear in the node count. *)
