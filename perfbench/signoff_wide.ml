(* signoff-wide: a wide RC tree with about a thousand outputs, printed
   once as a SPICE deck; one job is what the times / bounds / certify
   subcommands do with it.  The per-output query path dominates; there
   is no time stepping. *)

open Harness

let thresholds = [ 0.1; 0.5; 0.9 ]
let certify_threshold = 0.5

(* [branches] resistor chains off the root, an output marked every
   [mark_every] sections, about one section in twenty a distributed (U)
   line.  The seed draws values and line positions, not sizes. *)
let generate st ~nodes ~branches ~mark_every =
  let module B = Rctree.Tree.Builder in
  let sections = nodes / branches in
  let b = B.create ~name:"signoff-wide" () in
  let vary x = x *. (0.5 +. Random.State.float st 1.) in
  let lines = ref 0 in
  for br = 0 to branches - 1 do
    let at = ref (B.add_resistor b ~parent:(B.input b) (vary 25.)) in
    B.add_capacitance b !at (vary 5e-15);
    for s = 1 to sections - 1 do
      let node =
        if Random.State.int st 20 = 0 then begin
          incr lines;
          B.add_line b ~parent:!at (vary 50.) (vary 5e-15)
        end
        else B.add_resistor b ~parent:!at (vary 10.)
      in
      B.add_capacitance b node (vary 1e-15);
      if s mod mark_every = 0 then B.mark_output b ~label:(Printf.sprintf "b%d.s%d" br s) node;
      at := node
    done
  done;
  (B.finish b, !lines)

type answer = {
  times : (string * Rctree.Tree.node_id * Rctree.Times.t) array;
  bounds : (float * (string * Rctree.Tree.node_id * (float * float)) array) list;
  verdicts : (string * Rctree.Tree.node_id * Rctree.Bounds.verdict) array;
}

(* the bounds subcommand's batches, one per threshold *)
let delay_bounds h =
  List.map (fun v -> (v, Rctree.Analysis.all_delay_bounds h ~threshold:v)) thresholds

let parse text =
  match Spice.Parser.parse_string text with
  | Ok deck -> deck
  | Error e -> failwith (Spice.Parser.error_to_string e)

let elaborate deck =
  match Spice.Elaborate.to_tree deck with
  | Ok tree -> tree
  | Error e -> failwith (Spice.Elaborate.error_to_string e)

(* The oracle: [Rctree.Moments.all_times], the one-pass all-node
   recursion, on an independent parse of the same deck.  Every output's
   times match it to 1e-12 relative, every delay window is the bounds
   of those times with t_min <= t_max, and every verdict agrees with
   the job's own window at the certify threshold. *)
let check ~(oracle : (string, Rctree.Times.t) Hashtbl.t) ~t_p ~deadline a =
  let n = Hashtbl.length oracle in
  let times_ok =
    Array.length a.times = n
    && Array.for_all
         (fun (label, _, (ts : Rctree.Times.t)) ->
           match Hashtbl.find_opt oracle label with
           | None -> false
           | Some (o : Rctree.Times.t) ->
               close ~rtol:1e-12 ts.t_p o.t_p && close ~rtol:1e-12 ts.t_d o.t_d
               && close ~rtol:1e-12 ts.t_r o.t_r)
         a.times
  in
  let bounds_ok =
    List.for_all
      (fun (v, rows) ->
        Array.length rows = n
        && Array.for_all
             (fun (label, _, (lo, hi)) ->
               match Hashtbl.find_opt oracle label with
               | None -> false
               | Some o ->
                   let atol = 1e-12 *. t_p in
                   lo <= hi
                   && close ~atol ~rtol:1e-9 lo (Rctree.Bounds.t_min o v)
                   && close ~atol ~rtol:1e-9 hi (Rctree.Bounds.t_max o v))
             rows)
      a.bounds
  in
  let verdicts_ok =
    match List.assoc_opt certify_threshold a.bounds with
    | None -> false
    | Some rows ->
        Array.length a.verdicts = Array.length rows
        && Array.for_all2
             (fun (l1, _, verdict) (l2, _, (lo, hi)) ->
               let expected =
                 if hi <= deadline then Rctree.Bounds.Pass
                 else if deadline < lo then Rctree.Bounds.Fail
                 else Rctree.Bounds.Unknown
               in
               l1 = l2 && Rctree.Bounds.equal_verdict verdict expected)
             a.verdicts rows
  in
  times_ok && bounds_ok && verdicts_ok

let make (ctx : ctx) =
  let st = Random.State.make [| ctx.seed; 0x5167 |] in
  let branches = 12 in
  let tree, lines = generate st ~nodes:10_000 ~branches ~mark_every:10 in
  let text = Spice.Printer.to_string tree in
  (* the oracle side parses its own copy of the deck *)
  let ref_tree = elaborate (parse text) in
  let all = Rctree.Moments.all_times ref_tree in
  let oracle = Hashtbl.create 1024 in
  List.iter
    (fun (label, id) -> Hashtbl.replace oracle label all.(id))
    (Rctree.Tree.outputs ref_tree);
  let t_p = Rctree.Moments.t_p ref_tree in
  (* a deadline at the median late bound, so the verdicts mix *)
  let deadline =
    median
      (Hashtbl.fold (fun _ o acc -> Rctree.Bounds.t_max o certify_threshold :: acc) oracle [])
  in
  let outputs = Hashtbl.length oracle in
  let answers = outputs * (2 + List.length thresholds) in
  let job ~traced:_ =
    let t0 = now () in
    let deck = parse text in
    let t1 = now () in
    let tree = elaborate deck in
    let t2 = now () in
    let h = Rctree.Analysis.make tree in
    let t3 = now () in
    let times = Rctree.Analysis.all_times h in
    let t4 = now () in
    let bounds = delay_bounds h in
    let verdicts = Rctree.Analysis.all_certify h ~threshold:certify_threshold ~deadline in
    let t5 = now () in
    let answer = { times; bounds; verdicts } in
    {
      total = t5 -. t0;
      setup = t3 -. t0;
      phases =
        [
          ("spice.parse_s", t1 -. t0);
          ("spice.elaborate_s", t2 -. t1);
          ("rctree.analysis_make_s", t3 -. t2);
          ("rctree.query_s", (t5 -. t3) /. float_of_int answers);
          ("batch", t4 -. t3);
        ];
      live = live_mb (h, answer);
      ok = check ~oracle ~t_p ~deadline answer;
    }
  in
  let controls () =
    (* a correct answer, then the same answer with one Times.t scaled *)
    let h = Rctree.Analysis.make ref_tree in
    let good =
      {
        times = Rctree.Analysis.all_times h;
        bounds = delay_bounds h;
        verdicts = Rctree.Analysis.all_certify h ~threshold:certify_threshold ~deadline;
      }
    in
    let times = Array.copy good.times in
    let label, id, (ts : Rctree.Times.t) = times.(Array.length times / 2) in
    times.(Array.length times / 2) <-
      (label, id, { t_p = ts.t_p *. 1.001; t_d = ts.t_d *. 1.001; t_r = ts.t_r *. 1.001 });
    check ~oracle ~t_p ~deadline good && not (check ~oracle ~t_p ~deadline { good with times })
  in
  let probes traced =
    let h = Rctree.Analysis.make ref_tree in
    let all_pass =
      median_of ~reps:21 (fun () -> snd (timed (fun () -> Rctree.Moments.all_times ref_tree)))
    in
    let batch = median (List.filter_map (field "batch") traced) in
    let pinned =
      median_of ~reps:3 (fun () -> snd (timed (fun () -> Rctree.Analysis.all_times h)))
    in
    let serial =
      Parallel.Pool.with_pool ~domains:1 (fun pool ->
          median_of ~reps:3 (fun () -> snd (timed (fun () -> Rctree.Analysis.all_times ~pool h))))
    in
    [
      ("rctree.all_pass_s", all_pass);
      ("rctree.query_over_pass", batch /. all_pass);
      ("parallel.speedup.analysis_batch", serial /. pinned);
    ]
  in
  {
    shape =
      [
        ("nodes", Int (Rctree.Tree.node_count tree));
        ("outputs", Int outputs);
        ("branches", Int branches);
        ("u_lines", Int lines);
        ("thresholds", Str (String.concat "," (List.map string_of_float thresholds)));
        ("answers_per_job", Int answers);
        ("deck_bytes", Int (String.length text));
      ];
    work_per_job = float_of_int answers;
    min_jobs = 3;
    warmup = true;
    job;
    probes;
    controls;
    armed = false;
  }
