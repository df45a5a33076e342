(** Build-once / query-many handle over one RC tree.

    {!make} runs the one-pass all-node moments recursion
    ({!Moments.all_sums}) once and keeps [T_P] plus the [T_De] and
    [T_Re] of every node; every {!times} / {!delay_bounds} /
    {!voltage_bounds} / {!certify} / {!elmore} query is then an array
    lookup.  The eq. (7) ordering check of {!Times.make} runs per
    answer.  Answers agree with the per-output reference
    {!Moments.times} to 1e-12 relative (property-tested); the two sum
    in different orders, so they may differ in the last bits.

    A handle is immutable after [make], so any number of domains may
    query it concurrently without locks.

    Outputs are addressed uniformly: every query takes
    [~output:(`Id node | `Name label)], and every lookup failure
    raises [Invalid_argument] with a [Rctree.Analysis:] message —
    never [Not_found]. *)

type t

type output = [ `Id of Tree.node_id | `Name of string ]
(** [`Id] is any node of the tree; [`Name] is a marked-output label. *)

val make : Tree.t -> t
(** One O(n) pass: characteristic times of every node plus the output
    directory. *)

val tree : t -> Tree.t
val outputs : t -> (string * Tree.node_id) list
(** The tree's marked outputs, in marking order. *)

val resolve : t -> output -> Tree.node_id
(** The node an [output] designates.  Raises [Invalid_argument] for an
    out-of-range [`Id] or an unknown [`Name]. *)

val times : t -> output:output -> Times.t
(** Characteristic times [T_P], [T_De], [T_Re] — eqs. (1), (5), (6). *)

val delay_bounds : t -> output:output -> threshold:float -> float * float
val voltage_bounds : t -> output:output -> time:float -> float * float
val certify : t -> output:output -> threshold:float -> deadline:float -> Bounds.verdict
val elmore : t -> output:output -> float

(** {2 Batch queries}

    Each answers every marked output, in marking order, with one
    lookup per output. *)

val all_times : ?pool:Parallel.Pool.t -> t -> (string * Tree.node_id * Times.t) array
(** [pool] is accepted and ignored — lookups are cheaper than a
    fan-out; the parameter stays only so existing callers compile. *)

val all_delay_bounds : t -> threshold:float -> (string * Tree.node_id * (float * float)) array
val all_voltage_bounds : t -> time:float -> (string * Tree.node_id * (float * float)) array

val all_certify :
  t -> threshold:float -> deadline:float -> (string * Tree.node_id * Bounds.verdict) array

val times_of_nodes : t -> Tree.node_id array -> Times.t array
(** Batch {!times} over an arbitrary node set (not just marked
    outputs) — characteristic times of every sink of a large net in
    one call. *)
