(** Text format for gate-level designs, so timing runs can be driven
    from files.

    {v
      # comment
      design adder_slice
      cell buf4  u1
      cell nand2 u2
      input in1 drive=378:0.04p loads=u1/a
      net   n1  driver=u1/y wire=line:2k,0.2p loads=u2/a,u2/b
      net   out driver=u2/y wire=lumped:0.1p loads=
      output out
    v}

    - [cell <library-cell> <instance>] declares an instance;
    - [input <net> \[drive=R:C\] loads=<pins>] declares a primary-input
      net (default drive: the paper's superbuffer);
    - [net <net> driver=<inst>/<pin> \[wire=...\] loads=<pins>] an
      internal net;
    - [output <net>] marks a timing endpoint;
    - pins are [instance/pin], lists comma-separated (possibly empty);
    - wire specs: [direct] (default), [lumped:C], [line:R,C],
      [star:R,C], [daisy:R,C]; values take SI suffixes.

    Declarations may appear in any order as long as instances precede
    the nets that reference them (the printer always emits cells
    first). *)

type error = { line : int; message : string }

(** The reader scans the text in place, by byte index ({!Rctree.Scan}):
    tokens, [key=value] pairs, load lists and [instance/pin] pairs are
    byte ranges, and only the names and numbers the design keeps are cut
    out.  Tokens are separated by spaces and tabs only, so a trailing
    ['\r'] is part of the last token; [#] starts a comment.  Of a
    repeated key the first counts.  An input reads [drive], then
    [loads], then [wire]; a net [driver], then [loads], then [wire]; of
    an [R:C] or [R,C] pair the C first — the first failure is the one
    reported. *)

val parse_string : Celllib.library -> string -> (Design.t, error) result

val parse_file : Celllib.library -> string -> (Design.t, error) result
(** Raises [Sys_error] when the file cannot be read. *)

val to_string : Design.t -> string
(** Parse → print → parse is the identity on timing results (tested). *)

val write_file : string -> Design.t -> unit

val error_to_string : error -> string
