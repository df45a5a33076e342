(** In-place scans over a range [text.[i .. e - 1]] of a text, for the
    line-oriented readers (SPICE decks, STA netlists): each returns a
    byte index and allocates nothing. *)

val blank : char -> bool
(** A token separator: space or tab. *)

val trimmed : char -> bool
(** What a trim drops: a blank, form feed, newline or carriage return. *)

val eol : string -> int -> int -> int
(** The first newline from [i], or [e]. *)

val index : string -> char -> int -> int -> int
(** The first occurrence of the character from [i], or [e]. *)

val trim_start : string -> int -> int -> int
(** The first byte from [i] that is not {!trimmed}, or [e]. *)

val trim_end : string -> int -> int -> int
(** [trim_end text s e]: the end of [text.[s .. e - 1]] once trailing
    {!trimmed} bytes are dropped. *)

val skip_blank : string -> int -> int -> int
(** The first byte from [i] that is not {!blank}, or [e]. *)

val token_end : string -> int -> int -> int
(** The first {!blank} from [i], or [e]. *)
