(** Path-resistance queries on RC trees (Section III, Fig. 3).

    [R_kk] is the resistance between the input and node [k]; [R_ke] is
    the resistance of the portion of the input→e path that is common
    with the input→k path, i.e. the resistance from the input to the
    lowest common ancestor of [k] and [e].  Distributed lines contribute
    their full series resistance when the whole edge lies on the path. *)

val resistance_to_root : Tree.t -> Tree.node_id -> float
(** [R_kk] — O(depth). *)

val all_resistances_to_root : Tree.t -> float array
(** [R_kk] for every node in one top-down pass — O(n). *)

val lowest_common_ancestor : Tree.t -> Tree.node_id -> Tree.node_id -> Tree.node_id

val shared_resistance : Tree.t -> Tree.node_id -> Tree.node_id -> float
(** [shared_resistance t k e] is [R_ke]. *)

val shared_resistances_to : Tree.t -> Tree.node_id -> float array
(** [R_ke] for a fixed output [e] and every node [k], in one O(n)
    pass: nodes on the input→e path keep their own [R_kk]; every node
    hanging off that path inherits the [R_kk] of its branch point. *)

val on_path_to : Tree.t -> Tree.node_id -> bool array
(** [on_path_to t e] marks the nodes of the input→e path (inclusive). *)
