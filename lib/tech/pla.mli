(** The PLA AND-plane line of Section V (Figs. 12 and 13).

    A polysilicon line drives the AND plane: gate positions every
    [segment_length] of poly wire, a transistor present at every second
    minterm.  One cascade section therefore models two minterms: a
    24×4 µm poly wire (180 Ω, 0.0107 pF in the default process) followed
    by a 4×4 µm gate crossing (30 Ω, 0.0134 pF).  The line is driven by
    a superbuffer (378 Ω, 0.04 pF).

    Two constructions are provided: {!line_expr} derives every element
    value from process geometry (SI units — seconds out), and
    {!paper_line} uses the literal numbers of the Fig. 12 APL listing
    (ohms and picofarads — numerically, delays come out in
    picoseconds). *)

type params = {
  gate_width : float;  (** metres *)
  gate_length : float;
  segment_length : float;  (** poly wire between gate positions *)
  wire_width : float;
  minterms_per_section : int;  (** 2 in the paper: every second minterm *)
}

val default_params : Process.t -> params
(** 4×4 µm gates, 24 µm segments, 4 µm wire — scaled with feature
    size. *)

val section : Process.t -> params -> Rctree.Expr.t
(** Wire segment cascaded with one gate crossing. *)

val line_expr : ?driver:Mosfet.driver -> Process.t -> params -> minterms:int -> Rctree.Expr.t
(** The full driven line; output port at the far end.
    Raises [Invalid_argument] when [minterms < 0]. *)

val line_tree : ?driver:Mosfet.driver -> Process.t -> params -> minterms:int -> Rctree.Tree.t
(** Same network as an explicit tree; single output labelled ["out"]. *)

val delay_bounds :
  ?threshold:float ->
  ?driver:Mosfet.driver ->
  Process.t ->
  params ->
  minterms:int ->
  float * float
(** [(t_min, t_max)] in seconds at the threshold (default 0.7, the
    paper's choice for Fig. 13). *)

val paper_line : minterms:int -> Rctree.Expr.t
(** Alias of {!Rctree.Expr.pla_line} — the literal listing. *)

val sweep :
  ?threshold:float ->
  ?driver:Mosfet.driver ->
  Process.t ->
  params ->
  minterms:int list ->
  (int * float * float) list
(** The Fig. 13 experiment: [(n, t_min, t_max)] per minterm count.
    Implemented on {!Rctree.Incremental}: the line is grown once,
    section by section (each count is the previous count plus a
    [Graft] at the root), so the whole sweep costs O(max n) algebra
    ops instead of O(Σ nᵢ).  Values are bit-identical to evaluating
    {!delay_bounds} per count.  Raises [Invalid_argument] on a
    negative count or non-positive [minterms_per_section]. *)
