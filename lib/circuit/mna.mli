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

exception Too_large of { unknowns : int; limit : int }
(** A system of [unknowns] rows, above [limit] = {!max_unknowns}. *)

val max_unknowns : int
(** The largest system {!of_tree} stamps: 512 unknowns (tree nodes
    minus the input).  The dense paths cost O(n²) memory and O(n³)
    time.  The slowest is {!Exact}'s Jacobi eigendecomposition, which
    on an RC chain took 3.7 s at 256 unknowns, 25 s at 512 and 100 s
    at 768 (2-vCPU x86-64 host; DESIGN.md §5f has the curve), so the
    limit keeps a dense answer under about half a minute.  Every test,
    example and corpus deck, and Fig. 11 at 64 segments, stay at or
    below 257.  Larger trees take the O(n) stepper ({!Large},
    {!Transient}). *)

val of_tree : ?cap_floor:float -> Rctree.Tree.t -> system
(** [of_tree t] stamps the system.  Every node is given at least
    [cap_floor] capacitance so that [C] is invertible; the default is
    [1e-12 × total capacitance] (or [1e-18] farads when the tree has no
    capacitance at all), far below any physical value yet large enough
    to keep the fast parasitic poles representable.

    Raises [Invalid_argument] when the tree still contains distributed
    lines or a zero-resistance edge (which would make [G] infinite —
    merge such nodes first), or a resistance so small that [1/R] is not
    finite.  Raises {!Too_large} above {!max_unknowns} unknowns, before
    anything of size n² is allocated. *)

val c_matrix : system -> Numeric.Matrix.t
(** The diagonal [C] as a full matrix, for the ODE steppers. *)

val dc_solution : system -> Numeric.Vector.t
(** Node voltages with the input held at 1 V — all ones for a
    well-formed tree (every node reaches the input through resistance
    only), exposed as a sanity check. *)
