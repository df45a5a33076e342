(* The parallel engine: Pool combinator semantics (determinism, work
   chunking, exception capture, re-entrancy); the Rctree.Analysis
   handle against the per-output reference Moments.times (1e-12
   relative) and against the one-shot wrappers (bit for bit); pooled
   vs serial clients. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* bit-identical, not approximately equal *)
let check_exact msg (a : float) (b : float) =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: %.17g <> %.17g" msg a b

let check_times_exact msg (a : Rctree.Times.t) (b : Rctree.Times.t) =
  check_exact (msg ^ ".t_p") a.Rctree.Times.t_p b.Rctree.Times.t_p;
  check_exact (msg ^ ".t_d") a.Rctree.Times.t_d b.Rctree.Times.t_d;
  check_exact (msg ^ ".t_r") a.Rctree.Times.t_r b.Rctree.Times.t_r

(* the handle's one all-node pass and the per-output reference sum in
   different orders: equal to 1e-12 relative, not bit for bit *)
let times_close (a : Rctree.Times.t) (b : Rctree.Times.t) =
  let close x y = Numeric.Float_cmp.approx_eq ~rtol:1e-12 ~atol:0. x y in
  close a.t_p b.t_p && close a.t_d b.t_d && close a.t_r b.t_r

let check_times_close msg (a : Rctree.Times.t) (b : Rctree.Times.t) =
  if not (times_close a b) then
    Alcotest.failf "%s: (%.17g, %.17g, %.17g) <> (%.17g, %.17g, %.17g)" msg a.t_p a.t_d a.t_r
      b.t_p b.t_d b.t_r

(* --- Pool combinators ------------------------------------------------ *)

let heavy x =
  (* enough float work per item that chunks actually overlap *)
  let acc = ref x in
  for _ = 1 to 100 do
    acc := Float.sqrt ((!acc *. !acc) +. 1.)
  done;
  !acc

let pool_tests =
  [
    Alcotest.test_case "map is bit-identical at 1, 2 and 4 domains" `Quick (fun () ->
        let xs = Array.init 257 (fun i -> float_of_int i *. 0.7) in
        let serial = Array.map heavy xs in
        List.iter
          (fun domains ->
            Parallel.Pool.with_pool ~domains (fun pool ->
                let par = Parallel.Pool.map ~pool heavy xs in
                check_int "length" (Array.length serial) (Array.length par);
                Array.iteri
                  (fun i v -> check_exact (Printf.sprintf "d=%d i=%d" domains i) serial.(i) v)
                  par))
          [ 1; 2; 4 ]);
    Alcotest.test_case "map on empty, singleton and tiny chunk" `Quick (fun () ->
        Parallel.Pool.with_pool ~domains:2 (fun pool ->
            check_int "empty" 0 (Array.length (Parallel.Pool.map ~pool heavy [||]));
            let one = Parallel.Pool.map ~pool ~chunk:1 (fun x -> x + 1) [| 41 |] in
            check_int "singleton" 42 one.(0);
            let xs = Array.init 7 Fun.id in
            let out = Parallel.Pool.map ~pool ~chunk:1 (fun x -> x * x) xs in
            Array.iteri (fun i v -> check_int "sq" (i * i) v) out));
    Alcotest.test_case "parallel_for touches every index exactly once" `Quick (fun () ->
        Parallel.Pool.with_pool ~domains:4 (fun pool ->
            let n = 1000 in
            let hits = Array.init n (fun _ -> Atomic.make 0) in
            Parallel.Pool.parallel_for ~pool ~n (fun i -> Atomic.incr hits.(i));
            Array.iteri (fun i a -> check_int (Printf.sprintf "hits.(%d)" i) 1 (Atomic.get a)) hits));
    Alcotest.test_case "map_list preserves order" `Quick (fun () ->
        Parallel.Pool.with_pool ~domains:3 (fun pool ->
            let xs = List.init 100 Fun.id in
            let ys = Parallel.Pool.map_list ~pool (fun x -> 2 * x) xs in
            check_bool "ordered" true (ys = List.map (fun x -> 2 * x) xs)));
    Alcotest.test_case "map_reduce folds in index order" `Quick (fun () ->
        (* string concatenation is non-associative-with-init: any
           completion-order reduction would scramble it *)
        let xs = Array.init 64 (fun i -> Printf.sprintf "%x" (i mod 16)) in
        let serial = Array.fold_left ( ^ ) "" xs in
        Parallel.Pool.with_pool ~domains:4 (fun pool ->
            let par =
              Parallel.Pool.map_reduce ~pool ~chunk:3 ~map:Fun.id ~combine:( ^ ) ~init:"" xs
            in
            check_bool "same string" true (String.equal serial par)));
    Alcotest.test_case "exception re-raised, lowest index wins" `Quick (fun () ->
        Parallel.Pool.with_pool ~domains:4 (fun pool ->
            (match
               Parallel.Pool.parallel_for ~pool ~chunk:1 ~n:32 (fun i ->
                   if i = 7 || i = 23 then failwith (Printf.sprintf "boom%d" i))
             with
            | () -> Alcotest.fail "expected Failure"
            | exception Failure msg -> Alcotest.(check string) "lowest" "boom7" msg);
            (* the pool survives a failed job *)
            let out = Parallel.Pool.map ~pool (fun x -> x + 1) (Array.init 16 Fun.id) in
            check_int "reusable" 16 out.(15)));
    Alcotest.test_case "nested combinators degrade to serial" `Quick (fun () ->
        Parallel.Pool.with_pool ~domains:2 (fun pool ->
            let out =
              Parallel.Pool.map ~pool
                (fun base ->
                  Parallel.Pool.map ~pool (fun i -> (10 * base) + i) (Array.init 3 Fun.id))
                (Array.init 4 Fun.id)
            in
            check_int "inner value" 32 out.(3).(2)));
    Alcotest.test_case "create validates, shutdown is final" `Quick (fun () ->
        check_invalid "zero domains" (fun () -> Parallel.Pool.create ~domains:0 ());
        check_invalid "set_default_domains 0" (fun () -> Parallel.Pool.set_default_domains 0);
        let pool = Parallel.Pool.create ~domains:2 () in
        check_int "domains" 2 (Parallel.Pool.domains pool);
        Parallel.Pool.shutdown pool;
        Parallel.Pool.shutdown pool;
        check_invalid "use after shutdown" (fun () ->
            Parallel.Pool.parallel_for ~pool ~n:4 ignore));
    Alcotest.test_case "set_default_domains resizes the shared pool" `Quick (fun () ->
        Parallel.Pool.set_default_domains 3;
        check_int "default" 3 (Parallel.Pool.default_domains ());
        check_int "shared" 3 (Parallel.Pool.domains (Parallel.Pool.get ()));
        Parallel.Pool.set_default_domains 1;
        check_int "shrunk" 1 (Parallel.Pool.domains (Parallel.Pool.get ())));
    Alcotest.test_case "pool reports metrics" `Quick (fun () ->
        Obs.reset ();
        Obs.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () ->
            Parallel.Pool.with_pool ~domains:2 (fun pool ->
                ignore (Parallel.Pool.map ~pool ~chunk:8 heavy (Array.init 128 float_of_int)));
            let counter name = Option.value (List.assoc_opt name (Obs.counters ())) ~default:0 in
            check_int "pool.jobs" 1 (counter "pool.jobs");
            check_bool "pool.chunks > 1" true (counter "pool.chunks" > 1);
            check_int "pool.tasks" 127 (counter "pool.tasks")));
  ]

(* --- Analysis handle vs reference and one-shots ---------------------- *)

let fig7_tree = Rctree.Convert.tree_of_expr ~name:"fig7" Rctree.Expr.fig7

let pla_tree n =
  let p = Tech.Process.default_4um in
  Tech.Pla.line_tree p (Tech.Pla.default_params p) ~minterms:n

(* the per-output reference, bypassing the handle entirely *)
let reference_times tree id = Rctree.Moments.times tree ~output:id

let check_handle_matches_legacy msg tree =
  let h = Rctree.Analysis.make tree in
  let n = Rctree.Tree.node_count tree in
  for id = 0 to n - 1 do
    let tag = Printf.sprintf "%s node %d" msg id in
    check_times_close tag (reference_times tree id) (Rctree.Analysis.times h ~output:(`Id id));
    let lo, hi = Rctree.delay_bounds tree ~output:id ~threshold:0.5 in
    let lo', hi' = Rctree.Analysis.delay_bounds h ~output:(`Id id) ~threshold:0.5 in
    check_exact (tag ^ " t_min") lo lo';
    check_exact (tag ^ " t_max") hi hi';
    let vlo, vhi = Rctree.voltage_bounds tree ~output:id ~time:100. in
    let vlo', vhi' = Rctree.Analysis.voltage_bounds h ~output:(`Id id) ~time:100. in
    check_exact (tag ^ " v_min") vlo vlo';
    check_exact (tag ^ " v_max") vhi vhi';
    check_exact (tag ^ " elmore") (Rctree.elmore_delay tree ~output:id)
      (Rctree.Analysis.elmore h ~output:(`Id id));
    check_bool (tag ^ " verdict") true
      (Rctree.certify tree ~output:id ~threshold:0.5 ~deadline:hi
      = Rctree.Analysis.certify h ~output:(`Id id) ~threshold:0.5 ~deadline:hi)
  done

let handle_tests =
  [
    Alcotest.test_case "handle = legacy on fig7, every node" `Quick (fun () ->
        check_handle_matches_legacy "fig7" fig7_tree);
    Alcotest.test_case "handle = legacy on the PLA family" `Quick (fun () ->
        List.iter
          (fun n -> check_handle_matches_legacy (Printf.sprintf "pla-%d" n) (pla_tree n))
          [ 2; 4; 10; 20 ]);
    Alcotest.test_case "name and id addressing agree" `Quick (fun () ->
        let tree = pla_tree 4 in
        let h = Rctree.Analysis.make tree in
        List.iter
          (fun (label, id) ->
            check_times_exact label
              (Rctree.Analysis.times h ~output:(`Id id))
              (Rctree.Analysis.times h ~output:(`Name label));
            check_times_exact (label ^ " legacy named") (Rctree.analyze_named tree ~output:label)
              (Rctree.Analysis.times h ~output:(`Name label)))
          (Rctree.Analysis.outputs h));
    Alcotest.test_case "unknown outputs raise Invalid_argument" `Quick (fun () ->
        let h = Rctree.Analysis.make fig7_tree in
        check_invalid "negative id" (fun () -> Rctree.Analysis.times h ~output:(`Id (-1)));
        check_invalid "id out of range" (fun () ->
            Rctree.Analysis.times h ~output:(`Id (Rctree.Tree.node_count fig7_tree)));
        check_invalid "unknown name" (fun () ->
            Rctree.Analysis.times h ~output:(`Name "no-such-output"));
        check_invalid "legacy named" (fun () ->
            Rctree.analyze_named fig7_tree ~output:"no-such-output"));
    Alcotest.test_case "all_times matches per-output Moments.times" `Quick (fun () ->
        let tree = pla_tree 20 in
        let outputs = Rctree.Tree.outputs tree in
        let batch = Rctree.Analysis.all_times (Rctree.Analysis.make tree) in
        check_int "count" (List.length outputs) (Array.length batch);
        List.iteri
          (fun i (label, id) ->
            let label', id', ts = batch.(i) in
            Alcotest.(check string) "label" label label';
            check_int "id" id id';
            check_times_close label (reference_times tree id) ts)
          outputs);
    Alcotest.test_case "times_of_nodes covers arbitrary nodes" `Quick (fun () ->
        let tree = pla_tree 10 in
        let h = Rctree.Analysis.make tree in
        let nodes = Array.init (Rctree.Tree.node_count tree) Fun.id in
        Array.iteri
          (fun i ts ->
            check_times_close (Printf.sprintf "node %d" nodes.(i)) (reference_times tree nodes.(i)) ts)
          (Rctree.Analysis.times_of_nodes h nodes));
  ]

(* --- random trees (qcheck, shared generators from Check.Gen) --------- *)

let arb_tree = Check.Gen.arb_tree

let random_tree_props =
  [
    QCheck.Test.make ~count:200 ~name:"handle = legacy on random trees" arb_tree (fun tree ->
        let h = Rctree.Analysis.make tree in
        let ok = ref true in
        for id = 0 to Rctree.Tree.node_count tree - 1 do
          if not (times_close (reference_times tree id) (Rctree.Analysis.times h ~output:(`Id id)))
          then ok := false
        done;
        !ok);
  ]

(* --- parallel clients: STA, Monte-Carlo ------------------------------ *)

let client_tests =
  [
    Alcotest.test_case "STA run: pooled = serial endpoints" `Quick (fun () ->
        let d = Sta.Generate.ripple_carry_adder ~bits:6 () in
        Parallel.Pool.with_pool ~domains:1 (fun serial ->
            Parallel.Pool.with_pool ~domains:3 (fun pool ->
                let r1 = Sta.Analysis.run_exn ~pool:serial d in
                let r2 = Sta.Analysis.run_exn ~pool d in
                check_bool "endpoints" true
                  (Sta.Analysis.endpoints r1 = Sta.Analysis.endpoints r2);
                check_bool "period" true
                  (Sta.Analysis.required_period r1 = Sta.Analysis.required_period r2);
                let re1 = Sta.Analysis.run_exn ~mode:Sta.Analysis.Elmore_mode ~pool:serial d in
                let re2 = Sta.Analysis.run_exn ~mode:Sta.Analysis.Elmore_mode ~pool d in
                check_bool "elmore endpoints" true
                  (Sta.Analysis.endpoints re1 = Sta.Analysis.endpoints re2))));
    Alcotest.test_case "Monte-Carlo: pooled = serial spreads" `Quick (fun () ->
        let p = Tech.Process.default_4um in
        let params = Tech.Pla.default_params p in
        let build process =
          let tree = Tech.Pla.line_tree process params ~minterms:10 in
          (tree, snd (List.hd (Rctree.Tree.outputs tree)))
        in
        Parallel.Pool.with_pool ~domains:1 (fun serial ->
            Parallel.Pool.with_pool ~domains:3 (fun pool ->
                let s1 =
                  Tech.Variation.monte_carlo ~samples:60 ~seed:7 ~pool:serial p ~build
                    ~threshold:0.7
                in
                let s2 =
                  Tech.Variation.monte_carlo ~samples:60 ~seed:7 ~pool p ~build ~threshold:0.7
                in
                check_bool "spreads" true (s1 = s2))));
    Alcotest.test_case "Netdelay.all_sink_delays: pooled = serial" `Quick (fun () ->
        let d = Sta.Generate.ripple_carry_adder ~bits:4 () in
        Parallel.Pool.with_pool ~domains:1 (fun serial ->
            Parallel.Pool.with_pool ~domains:3 (fun pool ->
                check_bool "delays" true
                  (Sta.Netdelay.all_sink_delays ~pool d
                  = Sta.Netdelay.all_sink_delays ~pool:serial d))));
  ]

(* --- workers that live only while a job runs ------------------------- *)

(* the [pool.workers_spawned] count of what [f] runs, metrics on *)
let spawned f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      f ();
      Option.value (List.assoc_opt "pool.workers_spawned" (Obs.counters ())) ~default:0)

(* about 2000 square roots: longer than spawning a domain *)
let slow x =
  let acc = ref x in
  for _ = 1 to 20 do
    acc := heavy !acc
  done;
  !acc

let worker_tests =
  [
    Alcotest.test_case "every job joins its workers: 200 maps, half raising" `Quick (fun () ->
        (* 600 spawns.  Each task outlasts a spawn, so workers take
           chunks; a job that returned before joining them would show an
           unfilled slot or miss a failure a worker records late *)
        let xs = Array.init 64 Fun.id in
        let n =
          spawned (fun () ->
              Parallel.Pool.with_pool ~domains:4 (fun pool ->
                  for job = 0 to 199 do
                    let raising = job mod 2 = 1 in
                    let f i =
                      if raising && i >= 40 then failwith (string_of_int i)
                      else if slow (float_of_int i) > 0. then i * job
                      else -1
                    in
                    match Parallel.Pool.map ~pool ~chunk:1 f xs with
                    | out ->
                        check_bool "no raise" false raising;
                        Array.iteri (fun i v -> check_int "slot" (i * job) v) out
                    | exception Failure msg ->
                        check_bool "raised" true raising;
                        Alcotest.(check string) "lowest index" "40" msg
                  done))
        in
        check_int "pool.workers_spawned" 600 n);
    Alcotest.test_case "a job spawns min (size - 1) (chunks - 1) workers" `Quick (fun () ->
        let on domains f = spawned (fun () -> Parallel.Pool.with_pool ~domains f) in
        check_int "ten chunks on 4 domains" 3
          (on 4 (fun pool -> Parallel.Pool.parallel_for ~pool ~chunk:10 ~n:100 ignore));
        check_int "two chunks on 4 domains" 1
          (on 4 (fun pool -> Parallel.Pool.parallel_for ~pool ~chunk:10 ~n:20 ignore));
        check_int "one chunk" 0
          (on 4 (fun pool -> Parallel.Pool.parallel_for ~pool ~chunk:10 ~n:5 ignore));
        check_int "1-domain pool" 0
          (on 1 (fun pool -> Parallel.Pool.parallel_for ~pool ~chunk:10 ~n:100 ignore));
        (* the outer job spawns one worker; the inner jobs, which would
           spawn three each at top level, spawn none *)
        check_int "nested calls" 1
          (on 4 (fun pool ->
               Parallel.Pool.parallel_for ~pool ~chunk:1 ~n:2 (fun _ ->
                   Parallel.Pool.parallel_for ~pool ~chunk:10 ~n:100 ignore))));
  ]

let () =
  Alcotest.run "parallel"
    [
      ("pool", pool_tests);
      ("handle", handle_tests);
      ("random trees", List.map QCheck_alcotest.to_alcotest random_tree_props);
      ("clients", client_tests);
      ("workers", worker_tests);
    ]
