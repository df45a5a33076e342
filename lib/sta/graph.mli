(** The instance-level timing graph and its topological order.

    There is an edge from instance [a] to instance [b] when the net
    driven by [a] has a load pin on [b].  Arrival times propagate in
    topological order; a combinational cycle makes levelling impossible
    and is reported instead. *)

type t

val of_design : Design.t -> t

val predecessors : t -> string -> string list
(** Instances driving nets that load the given instance, duplicates
    removed, sorted. *)

val successors : t -> string -> string list

val topological_order : t -> (string list, string list) result
(** [Ok order] with every instance, dependencies first; [Error cycle]
    with the instances involved in (or downstream of) a combinational
    loop. *)

val levels : t -> (string * int) list
(** Logic depth of each instance (0 = fed only by primary inputs);
    raises [Invalid_argument] when the graph has a cycle. *)

val design_order : Design.t -> (int array, int list) result
(** The timing engine's order: [Ok] every instance id, dependencies
    first, read straight from the design's ids with no name sorted or
    hashed; [Error] the ids in (or downstream of) a combinational loop.
    {!topological_order} runs the same routine with its queue seeded in
    name order. *)

val stuck_names : Design.t -> int list -> string list
(** The names of the given instance ids, sorted: how a cycle is
    reported. *)
