type corner = { corner_name : string; process : Process.t }

let check_fraction name v lo hi =
  if not (v >= lo && v <= hi) then
    invalid_arg (Printf.sprintf "Variation.%s: value %g outside [%g, %g]" name v lo hi)

let perturb (p : Process.t) ~resistance_factor ~oxide_factor =
  {
    p with
    Process.poly_sheet_resistance = p.Process.poly_sheet_resistance *. resistance_factor;
    metal_sheet_resistance = p.Process.metal_sheet_resistance *. resistance_factor;
    diffusion_sheet_resistance = p.Process.diffusion_sheet_resistance *. resistance_factor;
    gate_oxide_thickness = p.Process.gate_oxide_thickness *. oxide_factor;
    field_oxide_thickness = p.Process.field_oxide_thickness *. oxide_factor;
  }

let corners ?(resistance_spread = 0.2) ?(oxide_spread = 0.1) p =
  check_fraction "corners" resistance_spread 0. 0.9;
  check_fraction "corners" oxide_spread 0. 0.9;
  [
    {
      corner_name = "slow";
      process =
        {
          (perturb p ~resistance_factor:(1. +. resistance_spread)
             ~oxide_factor:(1. -. oxide_spread))
          with
          Process.name = p.Process.name ^ "-slow";
        };
    };
    { corner_name = "typical"; process = p };
    {
      corner_name = "fast";
      process =
        {
          (perturb p ~resistance_factor:(1. -. resistance_spread)
             ~oxide_factor:(1. +. oxide_spread))
          with
          Process.name = p.Process.name ^ "-fast";
        };
    };
  ]

type spread = { mean : float; stddev : float; p5 : float; p50 : float; p95 : float }

let spread_of_samples xs =
  {
    mean = Numeric.Stats.mean xs;
    stddev = Numeric.Stats.stddev xs;
    p5 = Numeric.Stats.percentile xs 5.;
    p50 = Numeric.Stats.median xs;
    p95 = Numeric.Stats.percentile xs 95.;
  }

(* Box-Muller *)
let gaussian st = sqrt (-2. *. log (Random.State.float st 1. +. 1e-300)) *. cos (2. *. Float.pi *. Random.State.float st 1.)

(* All random draws happen serially up front, in a fixed order
   (resistance factor before oxide factor, per sample), so the sample
   set is a function of [seed] alone — any pool only fans out the
   (pure, expensive) per-sample analyses. *)
let sample_factors ~samples ~seed ~sigma_resistance ~sigma_oxide =
  if samples <= 0 then invalid_arg "Variation.sample_factors: samples must be positive";
  check_fraction "sample_factors" sigma_resistance 0. 0.5;
  check_fraction "sample_factors" sigma_oxide 0. 0.5;
  let st = Random.State.make [| seed |] in
  let factors = Array.init samples (fun _ -> (1., 1.)) in
  for i = 0 to samples - 1 do
    let factor sigma = Float.max 0.1 (1. +. (sigma *. gaussian st)) in
    let resistance_factor = factor sigma_resistance in
    let oxide_factor = factor sigma_oxide in
    factors.(i) <- (resistance_factor, oxide_factor)
  done;
  factors

let monte_carlo ?(samples = 200) ?(seed = 42) ?(sigma_resistance = 0.08) ?(sigma_oxide = 0.04)
    ?pool p ~build ~threshold =
  if samples <= 0 then invalid_arg "Variation.monte_carlo: samples must be positive";
  check_fraction "monte_carlo" sigma_resistance 0. 0.5;
  check_fraction "monte_carlo" sigma_oxide 0. 0.5;
  Obs.Span.with_ ~name:"tech.monte_carlo" @@ fun () ->
  let factors = sample_factors ~samples ~seed ~sigma_resistance ~sigma_oxide in
  let windows =
    Parallel.Pool.map ?pool
      (fun (resistance_factor, oxide_factor) ->
        let perturbed = perturb p ~resistance_factor ~oxide_factor in
        let tree, output = build perturbed in
        let ts = Rctree.Moments.times tree ~output in
        (Rctree.Bounds.t_min ts threshold, Rctree.Bounds.t_max ts threshold))
      factors
  in
  (spread_of_samples (Array.map fst windows), spread_of_samples (Array.map snd windows))

(* Global R/C scaling commutes with the five-tuple algebra
   (multilinearity), so a Monte-Carlo trial on a fixed topology needs
   no rebuild at all: one O(1) [Incremental.times_scaled] per sample
   against a shared handle.  Oxides scale thickness, capacitance goes
   as 1/thickness, hence capacitance_factor = 1 / oxide_factor. *)
let monte_carlo_expr ?(samples = 200) ?(seed = 42) ?(sigma_resistance = 0.08)
    ?(sigma_oxide = 0.04) base ~threshold =
  if samples <= 0 then invalid_arg "Variation.monte_carlo_expr: samples must be positive";
  check_fraction "monte_carlo_expr" sigma_resistance 0. 0.5;
  check_fraction "monte_carlo_expr" sigma_oxide 0. 0.5;
  Obs.Span.with_ ~name:"tech.monte_carlo_expr" @@ fun () ->
  let factors = sample_factors ~samples ~seed ~sigma_resistance ~sigma_oxide in
  let h = Rctree.Incremental.of_expr base in
  (* serial: an O(1) trial is far cheaper than spawning a domain *)
  let windows =
    Array.map
      (fun (resistance_factor, oxide_factor) ->
        let ts =
          Rctree.Incremental.times_scaled h ~resistance_factor
            ~capacitance_factor:(1. /. oxide_factor)
        in
        (Rctree.Bounds.t_min ts threshold, Rctree.Bounds.t_max ts threshold))
      factors
  in
  (spread_of_samples (Array.map fst windows), spread_of_samples (Array.map snd windows))

let pp_spread fmt s =
  Format.fprintf fmt "{mean=%s sd=%s p5=%s p50=%s p95=%s}" (Rctree.Units.format_si s.mean)
    (Rctree.Units.format_si s.stddev) (Rctree.Units.format_si s.p5)
    (Rctree.Units.format_si s.p50) (Rctree.Units.format_si s.p95)
