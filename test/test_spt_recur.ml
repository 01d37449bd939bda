module SR = Csap.Spt_recur
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Net = Csap_dsim.Net

let check_spt ?(delay = Csap_dsim.Delay.Exact) g source strip =
  let r = SR.run ~spec:{ Net.default with Net.delay } g ~source ~strip in
  let { Csap_graph.Paths.dist; _ } = Csap_graph.Paths.dijkstra g ~src:source in
  for v = 0 to G.n g - 1 do
    Alcotest.(check int)
      (Printf.sprintf "depth %d (strip %d)" v strip)
      dist.(v)
      (Csap_graph.Tree.depth r.SR.tree v)
  done;
  r

let test_strip_one () = ignore (check_spt (Gen.grid 3 4 ~w:3) 0 1)
let test_strip_large () =
  (* One giant strip = pure asynchronous Bellman-Ford + a single barrier. *)
  let g = Gen.grid 3 4 ~w:3 in
  let d = Csap_graph.Paths.diameter g in
  let r = check_spt g 0 (d + 1) in
  Alcotest.(check int) "one strip" 1 r.SR.strips

let test_strip_sweep_correct () =
  let g = Gen.bkj_star_cycle 10 ~heavy:20 in
  List.iter (fun s -> ignore (check_spt g 0 s)) [ 1; 2; 4; 8; 16; 64 ]

let test_tradeoff_direction () =
  (* Smaller strips => more synchronisation traffic; bigger strips => no
     more sync than smaller ones. *)
  let g = Gen.grid 4 5 ~w:4 in
  let sync s = (SR.run g ~source:0 ~strip:s).SR.sync_comm in
  Alcotest.(check bool) "sync monotone" true (sync 1 >= sync 8);
  Alcotest.(check bool) "sync monotone 2" true (sync 8 >= sync 64)

let test_heavy_edges_sleep () =
  (* Offers over heavy edges are deferred to their strip: on the chorded
     cycle the chords' offers are never useful and arrive only once. *)
  let g = Gen.chorded_cycle 10 ~chord_w:64 in
  let r = check_spt g 0 4 in
  Alcotest.(check bool) "bounded offers" true
    (r.SR.offer_comm <= 4 * G.total_weight g)

let test_delay_models () =
  let g = Gen.lollipop 4 4 ~w:3 in
  List.iter
    (fun delay -> ignore (check_spt ~delay g 0 3))
    [
      Csap_dsim.Delay.Exact;
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 15);
    ]

let test_budget_interrupt () =
  let g = Gen.grid 4 4 ~w:5 in
  Alcotest.(check bool) "tiny budget fails" true
    (SR.try_run ~comm_budget:4 g ~source:0 ~strip:4 = None);
  Alcotest.(check bool) "huge budget succeeds" true
    (SR.try_run ~comm_budget:max_int g ~source:0 ~strip:4 <> None)

let test_ds_detection_under_adversarial_delays () =
  (* The Dijkstra-Scholten machinery must detect strip completion under
     every delay model, including the near-zero adversary that maximises
     in-strip corrections. *)
  let g = Gen.random_connected (Csap_graph.Rng.create 23) 30 ~extra_edges:40 ~wmax:9 in
  List.iter
    (fun delay -> ignore (check_spt ~delay g 0 5))
    [
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Jitter (Csap_graph.Rng.create 24);
      Csap_dsim.Delay.Scaled 0.3;
    ]

let prop_spt_recur_correct =
  QCheck.Test.make ~count:60 ~name:"SPT_recur = Dijkstra for any strip"
    QCheck.(
      pair (Gen_qcheck.graph_and_vertex ~max_n:12 ()) (int_range 1 30))
    (fun ((g, source), strip) ->
      let r = SR.run g ~source ~strip in
      let { Csap_graph.Paths.dist; _ } =
        Csap_graph.Paths.dijkstra g ~src:source
      in
      let ok = ref true in
      for v = 0 to G.n g - 1 do
        if Csap_graph.Tree.depth r.SR.tree v <> dist.(v) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "strip = 1" `Quick test_strip_one;
    Alcotest.test_case "single giant strip" `Quick test_strip_large;
    Alcotest.test_case "strip sweep correctness" `Quick
      test_strip_sweep_correct;
    Alcotest.test_case "sync/work trade-off direction" `Quick
      test_tradeoff_direction;
    Alcotest.test_case "heavy edges sleep" `Quick test_heavy_edges_sleep;
    Alcotest.test_case "delay models" `Quick test_delay_models;
    Alcotest.test_case "budget interruption" `Quick test_budget_interrupt;
    Alcotest.test_case "DS termination under adversarial delays" `Quick
      test_ds_detection_under_adversarial_delays;
    QCheck_alcotest.to_alcotest prop_spt_recur_correct;
  ]
