(** Nodal analysis of lumped RC trees.

    Builds the matrices of the network ODE

    {v C dv/dt = -G v + b u(t) v}

    over the internal nodes (every node except the driven input).  For a
    grounded-capacitor resistor tree, [G] is symmetric positive definite
    and [C] is diagonal, which the exact solver exploits.

    Distributed lines are not accepted here — discretize with
    {!Rctree.Lump.discretize} first. *)

type system = {
  g : Numeric.Matrix.t;  (** conductance matrix, (n-1)×(n-1), SPD *)
  c : Numeric.Vector.t;  (** diagonal of the capacitance matrix *)
  b : Numeric.Vector.t;  (** input-coupling vector: [b.(i) = g_{i,input}] *)
  node_of_row : int array;  (** tree node backing each matrix row *)
  row_of_node : int array;  (** inverse map; [-1] for the input node *)
}

val of_tree : ?cap_floor:float -> Rctree.Tree.t -> system
(** [of_tree t] stamps the system.  Every node is given at least
    [cap_floor] capacitance so that [C] is invertible; the default is
    [1e-12 × total capacitance] (or [1e-18] farads when the tree has no
    capacitance at all), far below any physical value yet large enough
    to keep the fast parasitic poles representable.

    Raises [Invalid_argument] when the tree still contains distributed
    lines or a zero-resistance edge (which would make [G] infinite —
    merge such nodes first), or a resistance so small that [1/R] is not
    finite. *)

val c_matrix : system -> Numeric.Matrix.t
(** The diagonal [C] as a full matrix, for the ODE steppers. *)

val dc_solution : system -> Numeric.Vector.t
(** Node voltages with the input held at 1 V — all ones for a
    well-formed tree (every node reaches the input through resistance
    only), exposed as a sanity check. *)
