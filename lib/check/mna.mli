(** Dense nodal analysis of lumped RC trees, for the oracles {!Exact}
    and {!Stepper}'s [`Dense].  Builds the matrices of the network ODE

    {v C dv/dt = -G v + b u(t) v}

    over the internal nodes (every node except the driven input).  For a
    grounded-capacitor resistor tree, [G] is symmetric positive definite
    and [C] is diagonal, which {!Exact} exploits.

    Distributed lines are not accepted here — discretize with
    {!Rctree.Lump.discretize} first. *)

type system = {
  g : Matrix.t;  (** conductance matrix, (n-1)×(n-1), SPD *)
  c : Vector.t;  (** diagonal of the capacitance matrix *)
  b : Vector.t;  (** input-coupling vector: [b.(i) = g_{i,input}] *)
  node_of_row : int array;  (** tree node backing each matrix row *)
  row_of_node : int array;  (** inverse map; [-1] for the input node *)
}

exception Too_large of { unknowns : int; limit : int }
(** A system of [unknowns] rows, above [limit] = {!max_unknowns}. *)

val max_unknowns : int
(** The largest system {!of_tree} stamps: 512 unknowns (tree nodes
    minus the input), which keeps {!Exact}'s O(n³) Jacobi
    eigendecomposition under about half a minute (DESIGN.md §5f has
    the curve). *)

val default_cap_floor : Rctree.Tree.t -> float
(** [1e-12 ×] the tree's total capacitance, or [1e-18] farads when it
    has none: far below any physical value, yet large enough to keep
    the fast parasitic poles representable. *)

val of_tree : ?cap_floor:float -> Rctree.Tree.t -> system
(** [of_tree t] stamps the system.  Every node is given at least
    [cap_floor] capacitance (default {!default_cap_floor}) so that [C]
    is invertible.

    Raises [Invalid_argument] when the tree still contains distributed
    lines or an edge [Circuit.Response.conductances] refuses (a copy of
    its rule), and {!Too_large} above {!max_unknowns} unknowns, before
    anything of size n² is allocated. *)

val c_matrix : system -> Matrix.t
(** The diagonal [C] as a full matrix, for the ODE steppers. *)

val dc_solution : system -> Vector.t
(** Node voltages with the input held at 1 V — all ones for a
    well-formed tree (every node reaches the input through resistance
    only), exposed as a sanity check. *)
