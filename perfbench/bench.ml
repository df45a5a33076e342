(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--self-test]

   generates the workload's inputs from the seed, runs its deck-to-answer
   jobs in a closed loop for S seconds, checks every answer against an
   oracle outside the timed region, and prints a record line and then,
   as the last line, one JSON object with [correct], [attempted],
   [failed] and [metrics] — the end-to-end metrics with [--trace 0], the
   per-layer metrics with [--trace 1].  [--self-test] arms the tree
   LDLᵀ pivot fault on the transient workloads and exits 0 only when
   every job fails its check.  See perfbench/README.md. *)

let workloads =
  [
    ("signoff-wide", Signoff_wide.make);
    ("transient-deep", Transient_deep.make);
    ("transient-record", Transient_record.make);
    ("sta-block", Sta_block.make);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let self_test = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set self_test, " arm the fault and require every job to fail");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--self-test]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S (expected %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace must be 0 or 1";
      exit 2
  | Some _ when !seconds <= 0. ->
      prerr_endline "--seconds must be positive";
      exit 2
  | Some make ->
      Obs.set_enabled false;
      (* the shared pool, pinned to at most two domains and started
         before anything is timed *)
      Parallel.Pool.set_default_domains (min 2 (Domain.recommended_domain_count ()));
      let domains = Parallel.Pool.domains (Parallel.Pool.get ()) in
      let ctx =
        { Harness.seed = !seed; seconds = !seconds; trace = !trace = 1; self_test = !self_test }
      in
      let w = make ctx in
      exit (Harness.run ~workload:!workload ~ctx ~domains w)
