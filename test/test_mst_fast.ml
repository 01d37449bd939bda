module M = Csap.Mst_fast
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Net = Csap_dsim.Net

let edge_set t =
  Csap_graph.Tree.edges t
  |> List.map (fun (p, c, w) -> (min p c, max p c, w))
  |> List.sort compare

let check_mst g =
  let r = M.run g in
  Alcotest.(check bool) "is the canonical MST" true
    (edge_set r.M.mst = edge_set (Csap_graph.Mst.prim g ~root:0));
  r

let test_small_graphs () =
  ignore (check_mst (Gen.path 6 ~w:3));
  ignore (check_mst (Gen.cycle 8 ~w:2));
  ignore
    (check_mst
       (G.create ~n:5
          [ (0, 1, 4); (1, 2, 7); (2, 3, 1); (3, 4, 9); (0, 4, 2); (1, 3, 3) ]))

let test_phase_bound () =
  let r = check_mst (Gen.complete 16 ~w:4) in
  Alcotest.(check bool)
    (Printf.sprintf "phases %d <= log2 n" r.M.phases)
    true (r.M.phases <= 5)

let test_comm_bound () =
  (* The paper's bound O(E log n log V): heavy edges are only probed after
     the guess reaches them, and every edge at most O(1) times per phase. *)
  let g = Gen.lower_bound_gn 16 ~x:8 in
  let r = check_mst g in
  let e = float_of_int (G.total_weight g) in
  let v = float_of_int (Csap_graph.Mst.weight g) in
  let log2 x = log x /. log 2.0 in
  let bound = 8.0 *. e *. log2 16.0 *. log2 v in
  Alcotest.(check bool)
    (Printf.sprintf "comm %d within O(E log n log V) = %.0f"
       r.M.measures.Csap.Measures.comm bound)
    true
    (float_of_int r.M.measures.Csap.Measures.comm <= bound)

let test_beats_ghs_time_when_dense () =
  (* The point of MST_fast: parallel scanning. On dense graphs GHS tests
     its incident edges serially and pays for it in time. *)
  let g = Gen.complete 20 ~w:100 in
  let fast = M.run g in
  let ghs = Csap.Mst_ghs.run g in
  Alcotest.(check bool)
    (Printf.sprintf "fast time %.0f < ghs time %.0f"
       fast.M.measures.Csap.Measures.time
       ghs.Csap.Mst_ghs.measures.Csap.Measures.time)
    true
    (fast.M.measures.Csap.Measures.time
    < ghs.Csap.Mst_ghs.measures.Csap.Measures.time)

let test_delay_models () =
  let g = Gen.lollipop 5 4 ~w:4 in
  List.iter
    (fun delay ->
      let r = M.run ~spec:{ Net.default with Net.delay } g in
      Alcotest.(check bool) "MST under adversarial delays" true
        (edge_set r.M.mst = edge_set (Csap_graph.Mst.prim g ~root:0)))
    [
      Csap_dsim.Delay.Exact;
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 81);
      Csap_dsim.Delay.Jitter (Csap_graph.Rng.create 82);
    ]

let prop_fast_correct =
  QCheck.Test.make ~count:60 ~name:"MST_fast = sequential MST (random)"
    QCheck.(pair (Gen_qcheck.connected_graph_gen ~max_n:16 ()) (int_bound 10_000))
    (fun (g, seed) ->
      let r =
        M.run
          ~spec:
            {
              Net.default with
              Net.delay = Csap_dsim.Delay.Uniform (Csap_graph.Rng.create seed);
            }
          g
      in
      edge_set r.M.mst = edge_set (Csap_graph.Mst.prim g ~root:0))

let suite =
  [
    Alcotest.test_case "small graphs" `Quick test_small_graphs;
    Alcotest.test_case "phase bound" `Quick test_phase_bound;
    Alcotest.test_case "O(E log n log V) communication" `Quick
      test_comm_bound;
    Alcotest.test_case "beats GHS time on dense graphs" `Quick
      test_beats_ghs_time_when_dense;
    Alcotest.test_case "delay models" `Quick test_delay_models;
    QCheck_alcotest.to_alcotest prop_fast_correct;
  ]
