(** Plain-text tables for the CLI and the examples.

    Columns are sized to their widest cell; numeric-looking cells are
    right-aligned, text cells left-aligned. *)

type t

val create : columns:string list -> t
(** Raises [Invalid_argument] on an empty column list. *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] when the row width differs from the
    header. *)

val add_float_row : ?fmt:(float -> string) -> t -> string -> float list -> unit
(** First column a label, the rest formatted floats (default
    ["%.6g"]). *)

val render : t -> string

val print : t -> unit

val render_csv : t -> string
(** The same data as comma-separated values (cells containing commas or
    quotes are quoted). *)
