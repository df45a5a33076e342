(** Interconnect geometry → electrical values.

    A wire segment on some layer turns into either a distributed RC
    line (poly, diffusion — resistance matters) or a lumped capacitance
    (metal — the paper neglects metal resistance but keeps its
    capacitance). *)

type layer = Poly | Metal | Diffusion

type segment = {
  layer : layer;
  length : float;  (** metres *)
  width : float;  (** metres *)
}

val segment : layer:layer -> length:float -> width:float -> segment
(** Raises [Invalid_argument] on non-positive width or negative
    length. *)

val sheet_resistance : Process.t -> layer -> float

val resistance : Process.t -> segment -> float
(** [sheet × length/width]. *)

val capacitance : Process.t -> segment -> float
(** Area capacitance over field oxide. *)

val to_element : ?neglect_metal_resistance:bool -> Process.t -> segment -> Rctree.Element.t
(** The RC-tree element modelling the segment.  With
    [neglect_metal_resistance] (default [true], as in the paper's
    Fig. 2) metal becomes a pure capacitor. *)

val squares : segment -> float
(** length/width. *)

(** {2 Incremental sizing sweeps}

    A driven multi-segment run denoted as an {!Rctree.Expr.t} whose
    leaves are individually addressable, so width what-ifs go through
    {!Rctree.Incremental} at O(depth) per query instead of rebuilding
    the net. *)

val segment_rc : Process.t -> layer:layer -> length:float -> width:float -> float * float
(** [(resistance, capacitance)] of one run segment.  Resistance is
    kept on every layer, including metal — a sizing sweep on a
    zero-resistance segment would be pointless.  Raises like
    {!segment}. *)

val run_expr :
  ?driver:Mosfet.driver ->
  Process.t ->
  layer:layer ->
  segment_length:float ->
  load:float ->
  widths:float array ->
  Rctree.Expr.t
(** A driver ({!Mosfet.paper_superbuffer} by default) feeding
    [Array.length widths] segments of [segment_length] each at the
    given widths, terminated by a [load] capacitance.  Associated with
    {!Rctree.Expr.balanced_cascade}, so the expression depth — and
    hence the incremental edit cost — is logarithmic in the segment
    count.  Raises [Invalid_argument] on an empty profile or negative
    load. *)

val run_segment_leaf : widths:float array -> int -> int
(** Leaf index of segment [i] inside {!run_expr}'s expression (for
    {!Rctree.Incremental.leaf_path}).  Raises [Invalid_argument]
    outside the range. *)

val sizing_sweep :
  ?threshold:float ->
  ?driver:Mosfet.driver ->
  Process.t ->
  layer:layer ->
  segment_length:float ->
  load:float ->
  widths:float array ->
  segment:int ->
  candidates:float array ->
  (float * float * float) array
(** What-if one segment's width over [candidates], all other segments
    fixed at [widths]: [(width, t_min, t_max)] per candidate at
    [threshold] (default 0.5).  Each candidate is one [Replace_leaf]
    edit on a shared base handle — results are
    bit-identical to rebuilding and re-evaluating the run per
    candidate.  Raises [Invalid_argument] on a bad segment index or
    run parameters. *)
