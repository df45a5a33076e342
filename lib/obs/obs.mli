(** Process-global metrics: counters, gauges, log-scale histograms and
    lightweight timing spans, with a table report and a JSON-lines
    exporter.

    Disabled by default: every instrumentation point then costs one
    flag check, so hot numeric loops can stay instrumented.  Enable
    programmatically with {!set_enabled}, via the CLI's
    [--metrics]/[--trace] flags, or by setting the [RCDELAY_METRICS]
    environment variable ([1] prints the report to stderr at exit; a
    path ending in [.json]/[.jsonl] or containing [/] dumps JSON lines
    there).

    Metrics register themselves on first {e make}, typically at module
    initialisation, so exports list every known metric even at value
    zero.

    {b Domain safety}: collection is safe from multiple domains (the
    pool's workers record freely).  Counters are atomics; histogram
    observations, span aggregates and the trace buffer are guarded by
    one registry lock; gauges are single-word stores (last writer
    wins).  Span {e nesting depth} is tracked per domain, so spans
    recorded inside pool tasks nest relative to that domain's own
    stack.  {!set_enabled}, {!set_trace} and {!reset} are
    configuration, not instrumentation — call them from one domain
    while no tasks are in flight. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero all counters, gauges and histograms, and drop span
    aggregates and trace events.  Registrations survive. *)

module Counter : sig
  type t

  val make : string -> t
  (** Register (or look up) the counter with this name. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t
  val set : t -> float -> unit
  val value : t -> float
end

(** Histogram over log-scale (power-of-two) buckets: bucket [e] holds
    values in [(2^(e-1), 2^e]]; non-positive values share one
    underflow bucket.  Tracks exact count/sum/min/max alongside. *)
module Histogram : sig
  type t

  val make : string -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val mean : t -> float
  (** [nan] when empty, as are {!min_value}, {!max_value} and
      {!quantile}. *)

  val min_value : t -> float
  val max_value : t -> float

  val quantile : t -> float -> float
  (** Bucket-resolution estimate: the upper bound of the bucket where
      the cumulative count reaches the requested rank (clamped to the
      observed max).  Raises [Invalid_argument] outside [0, 1]. *)

  val bucket_upper_bound : value:float -> float
  (** The upper bound of the bucket a value falls into — exposed for
      tests of the bucketing math. *)
end

module Span : sig
  type event = { name : string; depth : int; start : float; duration : float }

  val with_ : name:string -> (unit -> 'a) -> 'a
  (** Time [f ()] on the wall clock and accumulate under [name];
      nested spans track their depth.  The span is recorded even when
      [f] raises.  When metrics are disabled this is exactly [f ()]. *)

  val set_trace : bool -> unit
  (** Additionally record individual span events (bounded buffer of
      10k) for {!events} / {!trace_report}. *)

  val trace_enabled : unit -> bool

  val events : unit -> event list
  (** Completed span events in completion order (empty unless tracing). *)

  val calls : string -> int
  val total_time : string -> float
end

val counters : unit -> (string * int) list
(** All registered counters, sorted by name — likewise {!gauges}. *)

val gauges : unit -> (string * float) list

(** Minimal JSON value type with printer and parser, enough for the
    JSON-lines exporter to round-trip (no external dependencies). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Number of float
    | String of string
    | Array of t list
    | Object of (string * t) list

  val to_string : t -> string

  val of_string : string -> (t, string) result
  (** Strings must be ASCII; [\uXXXX] escapes above 0x7f decode to
      ['?']. *)

  val member : string -> t -> t option
  (** Field lookup on [Object]; [None] otherwise. *)
end

val report : unit -> string
(** Human-readable tables: counters and gauges, non-empty histograms
    (count/mean/min/max/p50/p95), and span timings. *)

val to_json_lines : unit -> string
(** One JSON object per line, [{"type": "counter" | "gauge" |
    "histogram" | "span", "name": ..., ...}]. *)

val write_json_lines : string -> unit

val trace_report : unit -> string
(** Recorded span events, indented by nesting depth, with offsets from
    the first span and durations in milliseconds. *)
