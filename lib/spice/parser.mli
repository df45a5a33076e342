(** Parser for the deck format of {!Deck}.

    Accepts classic SPICE conventions: ['*'] comments, [';'] and ['$']
    trailing comments, ['+'] continuation lines, case-insensitive card
    letters, a first line treated as the title when it parses as no
    known card, [.title]/[.output]/[.end] directives. *)

type error = { line : int; column : int; message : string }
(** Parsing never raises: every malformed deck comes back as [Error].
    [line] is 1-based, the first physical line of the logical line;
    [column] is the 1-based position, within the logical line (trimmed,
    each [+] continuation joined by one space in place of its [+]), of
    the first token equal to the offending one, or [0] when no single
    token is to blame (deck-level problems such as content after
    [.end], an orphan continuation or a bad [.include]). *)

val parse_string : string -> (Deck.t, error) result
(** Reads the deck in one scan over its bytes.  An [.include] is an
    error here: it needs the base directory that {!parse_file} has. *)

val parse_file : ?max_include_depth:int -> string -> (Deck.t, error) result
(** Reads the whole file, then scans it as {!parse_string} does.  Raises
    [Sys_error] when a file cannot be read.  Errors inside an included
    file carry that file's line number and name its path in the
    message. *)

val error_to_string : error -> string
