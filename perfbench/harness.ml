(* The workload-independent half of the benchmark: the wall clock,
   order statistics, the closed job loop, and the printed record.

   Every workload is a closed loop: one job at a time, the next one
   starting when the previous one returns.  A job runs the deck-to-answer
   path and times it from outside (the library gains no spans for this);
   its answer is then checked against an oracle, outside the timed
   region.  An untraced run (Obs disabled) gives the end-to-end metrics;
   a traced run alternates untraced and traced jobs, reads per-layer
   figures from the traced ones and reports their time ratio as the
   tracing overhead. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* median of [reps] timings of [f] (each call may set up untimed state
   first and return the seconds it measured) *)
let median_of ~reps f = median (List.init reps (fun _ -> f ()))

(* the highest percentile with at least ten samples beyond it:
   (percentile, value, sample count); [None] below eleven samples *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 11 then None
  else
    let k = n - 11 in
    Some (100. *. float_of_int (k + 1) /. float_of_int n, a.(k), n)

(* |a - b| <= rtol * max(|a|, |b|) + atol, both finite *)
let close ?(atol = 0.) ~rtol a b =
  Float.is_finite a && Float.is_finite b
  && Float.abs (a -. b) <= (rtol *. Float.max (Float.abs a) (Float.abs b)) +. atol

(* ---- JSON out ---- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Null
  | Arr of json list
  | Obj of (string * json) list

let rec json_to_string = function
  | Num x -> if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Null -> "null"
  | Arr items -> "[" ^ String.concat ", " (List.map json_to_string items) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v)) fields)
      ^ "}"

(* ---- metrics ---- *)

type metric = { name : string; unit_ : string }

(* what a trace-0 run prints, and in this order *)
let end_to_end =
  [
    { name = "setup_s"; unit_ = "s" };
    { name = "job_p50_s"; unit_ = "s" };
    { name = "work_per_s"; unit_ = "1/s" };
    { name = "live_mb"; unit_ = "MB" };
  ]

(* what a trace-1 run prints; a layer that does not run on a workload
   reports 0 there *)
let per_layer =
  List.map
    (fun (name, unit_) -> { name; unit_ })
    [
      ("spice.parse_s", "s");
      ("spice.elaborate_s", "s");
      ("rctree.build_s", "s");
      ("rctree.analysis_make_s", "s");
      ("rctree.query_s", "s");
      ("rctree.all_pass_s", "s");
      ("rctree.query_over_pass", "ratio");
      ("rctree.lump_s", "s");
      ("circuit.operator_s", "s");
      ("circuit.step_s", "s");
      ("circuit.step_over_solve", "ratio");
      ("circuit.step_scaling", "ratio");
      ("circuit.simulate_s", "s");
      ("circuit.record_bytes", "bytes");
      ("numeric.factor_s", "s");
      ("numeric.solve_clean_s", "s");
      ("numeric.solve_state_s", "s");
      ("numeric.subnormal_share", "share");
      ("numeric.solve_bytes", "bytes");
      ("numeric.solve_gbps", "GB/s");
      ("numeric.copy_gbps", "GB/s");
      ("numeric.copy_array_bytes", "bytes");
      ("numeric.solve_bw_frac", "ratio");
      ("sta.parse_s", "s");
      ("sta.netdelay_s", "s");
      ("sta.propagate_s", "s");
      ("parallel.domains", "count");
      ("parallel.speedup.analysis_batch", "ratio");
      ("parallel.speedup.sta_netdelay", "ratio");
      ("obs.overhead", "ratio");
    ]

(* ---- workloads ---- *)

type sample = {
  total : float;  (** deck to answer, setup included *)
  setup : float;  (** input to ready handle *)
  phases : (string * float) list;  (** per-layer figures of this job *)
  live : float;  (** live heap (MB) holding the job's handle and answer *)
  ok : bool;  (** the oracle accepted the answer *)
}

type workload = {
  shape : (string * json) list;  (** the generated input's shape, recorded with the metrics *)
  work_per_job : float;  (** answers, node-steps or nets per job *)
  min_jobs : int;  (** jobs per run even when they overrun [--seconds] *)
  warmup : bool;  (** run one untimed job before measuring *)
  job : traced:bool -> sample;
      (** One deck-to-answer job and its oracle check.  A traced job may
          time extra layer calls after its answer; they stay out of
          [total]. *)
  probes : sample list -> (string * float) list;
      (** Per-layer figures of a traced run that are not per-job phases,
          given the traced samples. *)
  controls : unit -> bool;
      (** Negative controls: hand the oracle deliberately wrong answers
          and return [true] when it rejects every one. *)
  armed : bool;
      (** A fault is armed in the program under test ([--self-test] on a
          workload that has one): every job must then fail its check. *)
}

type ctx = { seed : int; seconds : float; trace : bool; self_test : bool }

let failed_sample = { total = nan; setup = nan; phases = []; live = nan; ok = false }

(* Live major-heap megabytes (10^6 bytes) while [keep] is reachable:
   [Gc.stat] runs a full major collection first, so the figure is the
   data a caller holds, independent of when collections happen to run.
   Called after a job's timed region. *)
let live_mb keep =
  let st = Gc.stat () in
  ignore (Sys.opaque_identity keep);
  float_of_int (st.Gc.live_words * (Sys.word_size / 8)) /. 1e6

let run_job w ~traced =
  Obs.set_enabled traced;
  let s =
    try w.job ~traced
    with e ->
      Printf.eprintf "job raised %s\n%!" (Printexc.to_string e);
      failed_sample
  in
  Obs.set_enabled false;
  s

(* the closed loop: jobs back to back until the budget is spent, each
   starting after a full major collection so one job's garbage does not
   bill the next; a traced run alternates untraced and traced jobs so
   both see the same machine state *)
let loop w ~budget ~trace =
  let t_start = now () in
  let rec go acc n =
    if n >= w.min_jobs && now () -. t_start >= budget then List.rev acc
    else begin
      Gc.full_major ();
      let traced = trace && n mod 2 = 1 in
      go ((traced, run_job w ~traced) :: acc) (n + 1)
    end
  in
  go [] 0

let field name (s : sample) = List.assoc_opt name s.phases

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let emit_record ~workload ~ctx ~domains ~jobs ~failed ~totals w =
  let tail_of = tail totals in
  let tail =
    match tail_of with
    | None -> Null
    | Some (p, v, n) -> Obj [ ("percentile", Num p); ("value_s", Num v); ("jobs", Int n) ]
  in
  let record =
    Obj
      [
        ("workload", Str workload);
        ("seed", Int ctx.seed);
        ("seconds", Num ctx.seconds);
        ("trace", Bool ctx.trace);
        ("self_test", Bool ctx.self_test);
        ("loop", Str "closed, one job in flight");
        ("pool_domains", Int domains);
        ("shape", Obj w.shape);
        ("jobs", Int jobs);
        ("failed_ratio", Num (float_of_int failed /. float_of_int (max 1 jobs)));
        ("job_tail_s", tail);
        ("peak_heap_mb", Num (peak_heap_mb ()));
        ("job_s", Arr (List.map (fun t -> Num t) totals));
      ]
  in
  print_endline (json_to_string (Obj [ ("record", record) ]))

let emit_result ~correct ~attempted ~failed metrics =
  let metrics =
    List.map (fun (m, v) -> (m.name, Obj [ ("value", Num v); ("unit", Str m.unit_) ])) metrics
  in
  print_endline
    (json_to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", Obj metrics);
          ]))

(* Runs one workload and prints its record and result; returns the
   process exit code. *)
let run ~workload ~ctx ~domains w =
  let controls_ok = w.controls () in
  if not controls_ok then prerr_endline "negative control: the oracle accepted a wrong answer";
  (* the self-test fault: pivot D_0 of every tree LDLᵀ factorization
     scaled by 1.05, so every transient solve is wrong *)
  if w.armed then Numeric.Tree_ldl.set_pivot_fault (Some (0, 1.05));
  if w.warmup then ignore (run_job w ~traced:false);
  let budget = if ctx.trace then 0.75 *. ctx.seconds else ctx.seconds in
  let jobs = loop w ~budget ~trace:ctx.trace in
  Numeric.Tree_ldl.set_pivot_fault None;
  let attempted = List.length jobs in
  let failed = List.length (List.filter (fun (_, s) -> not s.ok) jobs) in
  (* timings come from jobs whose answer was accepted — under the
     self-test, where every answer is wrong, from every job that ran *)
  let good traced =
    List.filter_map
      (fun (t, s) ->
        if t = traced && (s.ok || ctx.self_test) && Float.is_finite s.total then Some s else None)
      jobs
  in
  let untraced = good false in
  let totals = List.map (fun s -> s.total) untraced in
  let metrics =
    if not ctx.trace then
      let p50 = median totals in
      [
        ("setup_s", median (List.map (fun s -> s.setup) untraced));
        ("job_p50_s", p50);
        ("work_per_s", w.work_per_job /. p50);
        ("live_mb", median (List.map (fun s -> s.live) untraced));
      ]
    else
      let traced = good true in
      let phase name = median (List.filter_map (field name) traced) in
      let measured =
        List.filter_map
          (fun m ->
            let v = phase m.name in
            if Float.is_nan v then None else Some (m.name, v))
          per_layer
      in
      let overhead = median (List.map (fun s -> s.total) traced) /. median totals in
      let probes = w.probes traced in
      probes @ measured
      @ [ ("parallel.domains", float_of_int domains); ("obs.overhead", overhead) ]
  in
  let listed = if ctx.trace then per_layer else end_to_end in
  let values =
    List.map
      (fun m -> (m, match List.assoc_opt m.name metrics with Some v -> v | None -> 0.))
      listed
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) values in
  emit_record ~workload ~ctx ~domains ~jobs:attempted ~failed ~totals w;
  (* an armed fault must fail every job; otherwise none may fail *)
  let correct =
    controls_ok && finite && if w.armed then failed = attempted else failed = 0
  in
  emit_result ~correct ~attempted ~failed values;
  if correct then 0 else 1
