(* The incremental what-if engine (PR3).

   The load-bearing invariant is *bit-identity*: for any edit
   sequence, the memoized handle answers exactly what a from-scratch
   evaluation of the edited expression answers — compared with
   structural (=) on the float records, not with a tolerance.  On top
   of that: a sweep answers each query as its own edit sequence, the
   O(1) scaled query agrees with re-evaluation to rounding, the Tech
   rewires (PLA sweep, wire sizing) match their from-scratch
   references exactly, and the Monte-Carlo numerics of Tech.Variation
   are unchanged (golden values, fixed seed). *)

module I = Rctree.Incremental

let rng_values = [ 0.1; 0.5; 1.; 2.; 5.; 10.; 100. ]

let gen_leaf =
  QCheck.Gen.(
    let* r = oneofl (0. :: rng_values) in
    let* c = oneofl (0. :: rng_values) in
    return (Rctree.Expr.urc r c))

let gen_expr =
  QCheck.Gen.(
    sized_size (int_range 1 25) (fix (fun self n ->
        if n <= 1 then gen_leaf
        else
          frequency
            [
              (3, let* k = int_range 1 (n - 1) in
                  let* a = self k in
                  let* b = self (n - k) in
                  return (Rctree.Expr.wc a b));
              (1, let* sub = self (n - 1) in
                  let* tail = gen_leaf in
                  return (Rctree.Expr.wc (Rctree.Expr.wb sub) tail));
              (1, gen_leaf);
            ])))

let arb_expr = QCheck.make gen_expr ~print:Rctree.Expr.to_string

(* a random edit against the *current* handle: paths are drawn from
   the handle itself, so deep edit sequences stay structurally valid *)
let random_edit st h =
  let leaf_path () = I.leaf_path h (Random.State.int st (I.leaf_count h)) in
  let prefix path =
    let n = List.length path in
    if n = 0 then path else List.filteri (fun i _ -> i < Random.State.int st (n + 1)) path
  in
  let value () = List.nth rng_values (Random.State.int st (List.length rng_values)) in
  match Random.State.int st 6 with
  | 0 -> I.Replace_leaf { path = leaf_path (); resistance = value (); capacitance = value () }
  | 1 -> I.Scale_r { path = prefix (leaf_path ()); factor = value () }
  | 2 -> I.Scale_c { path = prefix (leaf_path ()); factor = value () }
  | 3 -> I.Insert_buffer { path = prefix (leaf_path ()); resistance = value (); capacitance = value () }
  | 4 ->
      let expr = if Random.State.bool st then Rctree.Expr.urc (value ()) (value ())
        else Rctree.Expr.wc (Rctree.Expr.urc (value ()) (value ())) (Rctree.Expr.wb (Rctree.Expr.urc (value ()) (value ())))
      in
      I.Graft { path = prefix (leaf_path ()); expr }
  | _ -> I.Prune { path = leaf_path () }

(* one step of the property: the reference semantics (edit_expr + full
   re-eval) and the memoized handle must accept/reject identically,
   and on acceptance agree float-for-float *)
let step (ok, h, e) edit =
  if not ok then (false, h, e)
  else
    match Rctree.Incremental.edit_expr e edit with
    | exception Invalid_argument _ -> (
        match I.apply h edit with
        | exception Invalid_argument _ -> (true, h, e)
        | _ -> (false, h, e))
    | e' -> (
        match I.apply h edit with
        | exception Invalid_argument _ -> (false, h, e)
        | h' ->
            let ok =
              I.to_expr h' = e'
              && I.times h' = Rctree.Expr.times e'
              && Rctree.Twoport.equal (I.tuple h') (Rctree.Expr.eval e')
            in
            (ok, h', e'))

let edit_sequence_prop =
  QCheck.Test.make ~count:100 ~name:"random edit sequences are bit-identical to from-scratch"
    (QCheck.pair arb_expr QCheck.small_nat)
    (fun (e, seed) ->
      let st = Random.State.make [| 0xed17; seed |] in
      let h = I.of_expr e in
      let n = 1 + Random.State.int st 100 in
      let ok = ref (true, h, e) in
      for _ = 1 to n do
        let _, h, _ = !ok in
        ok := step !ok (random_edit st h)
      done;
      let ok, _, _ = !ok in
      ok)

let sweep_queries_prop =
  QCheck.Test.make ~count:25 ~name:"sweep = apply_all per query"
    (QCheck.pair arb_expr QCheck.small_nat)
    (fun (e, seed) ->
      let st = Random.State.make [| 0x5ee9; seed |] in
      let h = I.of_expr e in
      let queries =
        Array.init 9 (fun _ ->
            let rec take k acc h' =
              if k = 0 then List.rev acc
              else
                let edit = random_edit st h' in
                match I.apply h' edit with
                | exception Invalid_argument _ -> take k acc h'
                | h'' -> take (k - 1) (edit :: acc) h''
            in
            take (1 + Random.State.int st 3) [] h)
      in
      I.sweep h queries = Array.map (fun q -> I.times (I.apply_all h q)) queries)

let close ?(rtol = 1e-9) a b = Numeric.Float_cmp.approx_eq ~rtol ~atol:1e-12 a b

let times_close ?rtol (a : Rctree.Times.t) (b : Rctree.Times.t) =
  close ?rtol a.Rctree.Times.t_p b.Rctree.Times.t_p
  && close ?rtol a.Rctree.Times.t_d b.Rctree.Times.t_d
  && close ?rtol a.Rctree.Times.t_r b.Rctree.Times.t_r

let scale_leaves rf cf e =
  let rec go = function
    | Rctree.Expr.Urc { resistance; capacitance } ->
        Rctree.Expr.urc (resistance *. rf) (capacitance *. cf)
    | Rctree.Expr.Branch e -> Rctree.Expr.wb (go e)
    | Rctree.Expr.Cascade (a, b) -> Rctree.Expr.wc (go a) (go b)
  in
  go e

let times_scaled_prop =
  QCheck.Test.make ~count:200 ~name:"times_scaled agrees with re-evaluating a scaled net"
    (QCheck.triple arb_expr (QCheck.oneofl [ 0.25; 0.9; 1.; 1.2; 3. ])
       (QCheck.oneofl [ 0.25; 0.9; 1.; 1.2; 3. ]))
    (fun (e, rf, cf) ->
      times_close ~rtol:1e-9
        (I.times_scaled (I.of_expr e) ~resistance_factor:rf ~capacitance_factor:cf)
        (Rctree.Expr.times (scale_leaves rf cf e)))

let balanced_cascade_prop =
  QCheck.Test.make ~count:200 ~name:"balanced_cascade re-associates without changing the times"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 40) arb_expr)
    (fun pieces ->
      times_close ~rtol:1e-9
        (Rctree.Expr.times (Rctree.Expr.balanced_cascade pieces))
        (Rctree.Expr.times (Rctree.Expr.cascade_all pieces)))

(* ---- unit tests ---- *)

let check_times = Alcotest.(check bool)

let test_fig7_replace () =
  (* fig7's first leaf replaced: handle vs hand-edited expression *)
  let h = I.of_expr Rctree.Expr.fig7 in
  let path = I.leaf_path h 0 in
  let h' = I.apply h (I.Replace_leaf { path; resistance = 42.; capacitance = 0.5 }) in
  let e' = Rctree.Incremental.edit_expr Rctree.Expr.fig7 (I.Replace_leaf { path; resistance = 42.; capacitance = 0.5 }) in
  check_times "bit-identical" true (I.times h' = Rctree.Expr.times e');
  (* the original handle is untouched (persistence) *)
  check_times "base unchanged" true (I.times h = Rctree.Expr.times Rctree.Expr.fig7)

let test_fig7_insert_buffer () =
  let h = I.of_expr Rctree.Expr.fig7 in
  let edit = I.Insert_buffer { path = []; resistance = 100.; capacitance = 0.2 } in
  let h' = I.apply h edit in
  let expected =
    Rctree.Expr.wc
      (Rctree.Expr.wc (Rctree.Expr.resistor 100.) (Rctree.Expr.capacitor 0.2))
      Rctree.Expr.fig7
  in
  check_times "buffered root" true (I.to_expr h' = expected);
  check_times "times" true (I.times h' = Rctree.Expr.times expected)

let test_graft_matches_wc () =
  let h = I.of_expr Rctree.Expr.fig7 in
  let tail = Rctree.Expr.urc 7. 3. in
  let h' = I.apply h (I.Graft { path = []; expr = tail }) in
  let expected = Rctree.Expr.wc Rctree.Expr.fig7 tail in
  check_times "grafted" true (I.to_expr h' = expected && I.times h' = Rctree.Expr.times expected)

let test_error_cases () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let h = I.of_expr Rctree.Expr.fig7 in
  Alcotest.(check bool) "prune root" true (raises (fun () -> I.apply h (I.Prune { path = [] })));
  let b = I.of_expr (Rctree.Expr.wc (Rctree.Expr.wb (Rctree.Expr.urc 1. 1.)) (Rctree.Expr.urc 2. 2.)) in
  Alcotest.(check bool) "prune the only child of a branch" true
    (raises (fun () -> I.apply b (I.Prune { path = [ I.L; I.B ] })));
  Alcotest.(check bool) "replace a non-leaf" true
    (raises (fun () -> I.apply h (I.Replace_leaf { path = []; resistance = 1.; capacitance = 1. })));
  Alcotest.(check bool) "path off the tree" true
    (raises (fun () -> I.apply b (I.Prune { path = [ I.R; I.R; I.R ] })));
  Alcotest.(check bool) "negative factor" true
    (raises (fun () -> I.apply h (I.Scale_r { path = []; factor = -1. })));
  Alcotest.(check bool) "leaf_path out of range" true
    (raises (fun () -> I.leaf_path h (I.leaf_count h)));
  Alcotest.(check bool) "path_of_string rejects junk" true
    (match I.path_of_string "lxr" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "path_of_string round-trips" true
    (I.path_of_string (I.path_to_string [ I.L; I.R; I.B ]) = Ok [ I.L; I.R; I.B ]
    && I.path_of_string "root" = Ok [])

let test_reeval_bounded_by_depth () =
  Obs.set_enabled true;
  let e = Rctree.Expr.balanced_cascade (List.init 512 (fun i -> Rctree.Expr.urc (float_of_int (i + 1)) 1.)) in
  let h = I.of_expr e in
  let counter name = Option.value (List.assoc_opt name (Obs.counters ())) ~default:0 in
  let before = counter "incr.nodes_reeval" in
  let path = I.leaf_path h 300 in
  ignore (I.apply h (I.Replace_leaf { path; resistance = 9.; capacitance = 9. }));
  let reevals = counter "incr.nodes_reeval" - before in
  (* one new leaf plus at most one cascade per spine level *)
  Alcotest.(check bool) "spine-only re-evaluation"
    true
    (reevals <= I.depth h + 1 && reevals > 0 && reevals < I.size h)

let test_pla_sweep_matches_from_scratch () =
  let p = Tech.Process.default_4um in
  let params = Tech.Pla.default_params p in
  let minterms = [ 40; 2; 10; 10; 0; 100; 3 ] in
  let swept = Tech.Pla.sweep ~threshold:0.7 p params ~minterms in
  let reference =
    List.map
      (fun n ->
        let lo, hi = Tech.Pla.delay_bounds ~threshold:0.7 p params ~minterms:n in
        (n, lo, hi))
      minterms
  in
  Alcotest.(check bool) "incremental PLA sweep bit-identical to per-count rebuild" true
    (swept = reference)

let test_sizing_sweep_matches_rebuild () =
  let p = Tech.Process.default_4um in
  let widths = [| 4e-6; 4e-6; 8e-6; 4e-6; 6e-6 |] in
  let candidates = [| 2e-6; 4e-6; 8e-6; 16e-6 |] in
  let layer = Tech.Wire.Poly and segment_length = 100e-6 and load = 0.05e-12 in
  let swept =
    Tech.Wire.sizing_sweep ~threshold:0.5 p ~layer ~segment_length ~load ~widths ~segment:2
      ~candidates
  in
  let reference =
    Array.map
      (fun w ->
        let widths' = Array.copy widths in
        widths'.(2) <- w;
        let ts =
          Rctree.Expr.times (Tech.Wire.run_expr p ~layer ~segment_length ~load ~widths:widths')
        in
        (w, Rctree.Bounds.t_min ts 0.5, Rctree.Bounds.t_max ts 0.5))
      candidates
  in
  Alcotest.(check bool) "sizing sweep bit-identical to rebuilding the run" true
    (swept = reference)

(* Tech.Variation.monte_carlo numerics must not move: same seed, same
   samples, same spreads.  Golden values recorded from the pre-rewire
   implementation (tree path untouched by this PR). *)
let test_monte_carlo_regression () =
  let p = Tech.Process.default_4um in
  let params = Tech.Pla.default_params p in
  let build process =
    let t = Tech.Pla.line_tree process params ~minterms:10 in
    (t, snd (List.hd (Rctree.Tree.outputs t)))
  in
  let lo, hi = Tech.Variation.monte_carlo ~samples:64 ~seed:42 p ~build ~threshold:0.7 in
  let lo2, hi2 = Tech.Variation.monte_carlo ~samples:64 ~seed:42 p ~build ~threshold:0.7 in
  Alcotest.(check bool) "same seed, same spreads" true (lo = lo2 && hi = hi2);
  let f = Tech.Variation.sample_factors ~samples:64 ~seed:42 ~sigma_resistance:0.08 ~sigma_oxide:0.04 in
  let f2 = Tech.Variation.sample_factors ~samples:64 ~seed:42 ~sigma_resistance:0.08 ~sigma_oxide:0.04 in
  Alcotest.(check bool) "sample_factors deterministic" true (f = f2);
  let golden name got expected = Alcotest.(check bool) name true (close ~rtol:1e-9 got expected) in
  golden "t_min mean" lo.Tech.Variation.mean 1.0600369046699497e-10;
  golden "t_min stddev" lo.Tech.Variation.stddev 5.6355932102005078e-12;
  golden "t_max mean" hi.Tech.Variation.mean 1.9899285269962468e-10;
  golden "t_max stddev" hi.Tech.Variation.stddev 1.1219427313333476e-11

let test_monte_carlo_expr () =
  let p = Tech.Process.default_4um in
  let params = Tech.Pla.default_params p in
  let base = Tech.Pla.line_expr p params ~minterms:10 in
  let a = Tech.Variation.monte_carlo_expr ~samples:64 ~seed:42 base ~threshold:0.7 in
  let b = Tech.Variation.monte_carlo_expr ~samples:64 ~seed:42 base ~threshold:0.7 in
  Alcotest.(check bool) "deterministic" true (a = b);
  let lo, hi = a in
  Alcotest.(check bool) "windows ordered" true (lo.Tech.Variation.mean <= hi.Tech.Variation.mean);
  (* same draws, same topology: the O(1) scaled path must land close
     to the rebuild path of monte_carlo (they differ only in rounding
     and in which physical parameters the factors touch) *)
  let build process =
    let t = Tech.Pla.line_tree process params ~minterms:10 in
    (t, snd (List.hd (Rctree.Tree.outputs t)))
  in
  let lo_t, hi_t = Tech.Variation.monte_carlo ~samples:64 ~seed:42 p ~build ~threshold:0.7 in
  Alcotest.(check bool) "agrees with the rebuild path to a few percent" true
    (Float.abs (lo.Tech.Variation.mean -. lo_t.Tech.Variation.mean) < 0.05 *. lo_t.Tech.Variation.mean
    && Float.abs (hi.Tech.Variation.mean -. hi_t.Tech.Variation.mean) < 0.05 *. hi_t.Tech.Variation.mean)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "incremental"
    [
      ( "properties",
        to_alcotest
          [
            edit_sequence_prop; sweep_queries_prop; times_scaled_prop; balanced_cascade_prop;
          ] );
      ( "units",
        [
          Alcotest.test_case "fig7 replace leaf" `Quick test_fig7_replace;
          Alcotest.test_case "fig7 insert buffer" `Quick test_fig7_insert_buffer;
          Alcotest.test_case "graft is cascade at the output" `Quick test_graft_matches_wc;
          Alcotest.test_case "error cases" `Quick test_error_cases;
          Alcotest.test_case "re-evaluation bounded by depth" `Quick test_reeval_bounded_by_depth;
        ] );
      ( "tech",
        [
          Alcotest.test_case "pla sweep vs from scratch" `Quick test_pla_sweep_matches_from_scratch;
          Alcotest.test_case "sizing sweep vs rebuild" `Quick test_sizing_sweep_matches_rebuild;
          Alcotest.test_case "monte carlo regression" `Quick test_monte_carlo_regression;
          Alcotest.test_case "monte carlo on the incremental engine" `Quick test_monte_carlo_expr;
        ] );
    ]
