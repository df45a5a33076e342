(** Penfield–Rubinstein delay bounds for RC tree networks.

    This is the public face of the library; see the individual modules
    for the details of each stage:

    - {!Element}, {!Tree}: network representation
    - {!Expr}, {!Twoport}: the paper's linear-time construction algebra
    - {!Path}, {!Moments}, {!Times}: characteristic times
    - {!Bounds}: the delay/voltage bounds and certification
    - {!Incremental}: memoized what-if edits and batch sweeps
    - {!Lump}, {!Convert}, {!Validate}, {!Units}: supporting tools

    The convenience functions below cover the common "one network, one
    output, one question" case. *)

module Element = Element
module Times = Times
module Twoport = Twoport
module Expr = Expr
module Tree = Tree
module Path = Path
module Moments = Moments
module Bounds = Bounds
module Transition = Transition
module Excitation = Excitation
module Higher_moments = Higher_moments
module Sensitivity = Sensitivity
module Incremental = Incremental
module Convert = Convert
module Lump = Lump
module Validate = Validate
module Units = Units
module Scan = Scan
module Analysis = Analysis

(* the one-shot functions are thin wrappers over a throwaway handle;
   build the handle yourself ({!Analysis.make}) to amortize its
   traversal over many queries *)

let analyze tree ~output = Analysis.times (Analysis.make tree) ~output:(`Id output)
let analyze_named tree ~output = Analysis.times (Analysis.make tree) ~output:(`Name output)

let delay_bounds tree ~output ~threshold =
  Analysis.delay_bounds (Analysis.make tree) ~output:(`Id output) ~threshold

let voltage_bounds tree ~output ~time =
  Analysis.voltage_bounds (Analysis.make tree) ~output:(`Id output) ~time

let certify tree ~output ~threshold ~deadline =
  Analysis.certify (Analysis.make tree) ~output:(`Id output) ~threshold ~deadline

let elmore_delay tree ~output = Analysis.elmore (Analysis.make tree) ~output:(`Id output)
