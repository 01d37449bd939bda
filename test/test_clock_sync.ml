module CS = Csap.Clock_sync
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Net = Csap_dsim.Net

let all_pulsed r =
  Array.for_all
    (fun row -> Array.for_all (fun t -> not (Float.is_nan t)) row)
    r.CS.pulse_times

let test_alpha_basic () =
  let g = Gen.cycle 6 ~w:3 in
  let r = CS.run_alpha g ~pulses:10 in
  Alcotest.(check bool) "all pulses generated" true (all_pulsed r);
  Alcotest.(check bool) "causality" true (CS.check_causality g r);
  (* Exact delays: pulse delay is exactly the heaviest incident edge. *)
  Alcotest.(check (float 1e-9)) "delay = W" 3.0 r.CS.max_pulse_delay

let test_alpha_pays_w () =
  (* Heavy chords force alpha* to W even though d = 2. *)
  let g = Gen.chorded_cycle 12 ~chord_w:50 in
  let r = CS.run_alpha g ~pulses:8 in
  Alcotest.(check bool) "causality" true (CS.check_causality g r);
  Alcotest.(check (float 1e-9)) "delay = W" 50.0 r.CS.max_pulse_delay

let test_beta_basic () =
  let g = Gen.grid 3 3 ~w:2 in
  let r = CS.run_beta g ~pulses:10 in
  Alcotest.(check bool) "all pulses generated" true (all_pulsed r);
  Alcotest.(check bool) "causality" true (CS.check_causality g r)

let test_beta_tracks_diameter () =
  let g = Gen.path 16 ~w:4 in
  let d = float_of_int (Csap_graph.Paths.diameter g) in
  let r = CS.run_beta g ~pulses:6 in
  Alcotest.(check bool) "causality" true (CS.check_causality g r);
  (* Convergecast + broadcast on the tree: between D and ~4 D. *)
  Alcotest.(check bool)
    (Printf.sprintf "delay %.1f ~ Theta(D=%.0f)" r.CS.max_pulse_delay d)
    true
    (r.CS.max_pulse_delay >= d /. 2.0 && r.CS.max_pulse_delay <= 4.0 *. d)

let test_gamma_basic () =
  let g = Gen.grid 3 3 ~w:2 in
  let r = CS.run_gamma g ~pulses:8 in
  Alcotest.(check bool) "all pulses generated" true (all_pulsed r);
  Alcotest.(check bool) "causality" true (CS.check_causality g r)

let test_gamma_beats_w () =
  (* The headline result: on the chorded cycle (d = 2, W large), gamma*'s
     pulse delay is O(d log^2 n) — far below alpha*'s Theta(W). *)
  let g = Gen.chorded_cycle 16 ~chord_w:200 in
  let alpha = CS.run_alpha g ~pulses:6 in
  let gamma = CS.run_gamma g ~pulses:6 in
  Alcotest.(check bool) "gamma causality" true (CS.check_causality g gamma);
  Alcotest.(check (float 1e-9)) "alpha pays W" 200.0 alpha.CS.max_pulse_delay;
  Alcotest.(check bool)
    (Printf.sprintf "gamma delay %.1f << W" gamma.CS.max_pulse_delay)
    true
    (gamma.CS.max_pulse_delay < 100.0);
  let d = float_of_int (Csap_graph.Paths.max_neighbor_distance g) in
  let n = float_of_int (G.n g) in
  let log2 x = log x /. log 2.0 in
  let bound = 8.0 *. d *. log2 n *. log2 n in
  Alcotest.(check bool)
    (Printf.sprintf "gamma delay %.1f <= 8 d log^2 n = %.1f"
       gamma.CS.max_pulse_delay bound)
    true
    (gamma.CS.max_pulse_delay <= bound)

let test_gamma_all_delay_models () =
  let g = Gen.chorded_cycle 10 ~chord_w:40 in
  List.iter
    (fun delay ->
      let r = CS.run_gamma ~spec:{ Net.default with Net.delay } g ~pulses:5 in
      Alcotest.(check bool) "all pulsed" true (all_pulsed r);
      Alcotest.(check bool) "causality" true (CS.check_causality g r))
    [
      Csap_dsim.Delay.Exact;
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 4);
      Csap_dsim.Delay.Jitter (Csap_graph.Rng.create 5);
    ]

let test_beta_all_delay_models () =
  let g = Gen.lollipop 4 4 ~w:3 in
  List.iter
    (fun delay ->
      let r = CS.run_beta ~spec:{ Net.default with Net.delay } g ~pulses:5 in
      Alcotest.(check bool) "all pulsed" true (all_pulsed r);
      Alcotest.(check bool) "causality" true (CS.check_causality g r))
    [
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 6);
    ]

let test_pulse_monotonicity () =
  let g = Gen.cycle 8 ~w:2 in
  let r = CS.run_gamma g ~pulses:6 in
  Array.iter
    (fun row ->
      for p = 1 to 6 do
        Alcotest.(check bool) "times nondecreasing" true
          (row.(p) >= row.(p - 1))
      done)
    r.CS.pulse_times

let test_gamma_neighbor_phase_ablation () =
  (* Without the alpha-among-trees phase, causality must still hold (the
     cover already spans every edge) while pulses release sooner and the
     inter-tree traffic disappears. *)
  let g = Gen.chorded_cycle 16 ~chord_w:120 in
  let full = CS.run_gamma g ~pulses:6 in
  let lean = CS.run_gamma ~neighbor_phase:false g ~pulses:6 in
  Alcotest.(check bool) "full causal" true (CS.check_causality g full);
  Alcotest.(check bool) "lean causal" true (CS.check_causality g lean);
  Alcotest.(check bool) "lean no slower" true
    (lean.CS.max_pulse_delay <= full.CS.max_pulse_delay +. 1e-9);
  Alcotest.(check bool) "lean cheaper" true
    (lean.CS.comm_per_pulse <= full.CS.comm_per_pulse)

let prop_synchronizers_causal =
  QCheck.Test.make ~count:20 ~name:"all clock synchronizers causal (random)"
    (Gen_qcheck.connected_graph_gen ~max_n:12 ~max_wmax:10 ())
    (fun g ->
      let checks =
        [
          CS.run_alpha g ~pulses:4;
          CS.run_beta g ~pulses:4;
          CS.run_gamma g ~pulses:4;
        ]
      in
      List.for_all (fun r -> all_pulsed r && CS.check_causality g r) checks)

let suite =
  [
    Alcotest.test_case "alpha* basics" `Quick test_alpha_basic;
    Alcotest.test_case "alpha* pays Theta(W)" `Quick test_alpha_pays_w;
    Alcotest.test_case "beta* basics" `Quick test_beta_basic;
    Alcotest.test_case "beta* tracks Theta(D)" `Quick
      test_beta_tracks_diameter;
    Alcotest.test_case "gamma* basics" `Quick test_gamma_basic;
    Alcotest.test_case "gamma* beats W (headline)" `Quick test_gamma_beats_w;
    Alcotest.test_case "gamma* under all delay models" `Quick
      test_gamma_all_delay_models;
    Alcotest.test_case "beta* under adversarial delays" `Quick
      test_beta_all_delay_models;
    Alcotest.test_case "pulse times monotone" `Quick test_pulse_monotonicity;
    Alcotest.test_case "gamma* neighbor-phase ablation" `Quick
      test_gamma_neighbor_phase_ablation;
    QCheck_alcotest.to_alcotest prop_synchronizers_causal;
  ]
