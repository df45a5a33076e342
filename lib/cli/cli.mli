(** The rcdelay command-line interface as a library, so the test suite
    can drive every subcommand in-process.

    [run argv] evaluates the command line (argv.(0) is the program
    name) and returns the intended exit code: 0 on success, 1 on a
    run-time failure such as a failed check, 2 on bad input (a command
    line, deck or value that is rejected) and 125 on an internal
    error. *)

val run : string array -> int
