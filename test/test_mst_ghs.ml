module M = Csap.Mst_ghs
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

let test_equal_weights () =
  (* Canonical tie-breaking must keep the fragments consistent. *)
  ignore (check_mst (Gen.complete 7 ~w:5));
  ignore (check_mst (Gen.grid 4 4 ~w:1))

let test_level_bound () =
  let g = Gen.complete 16 ~w:3 in
  let r = check_mst g in
  Alcotest.(check bool)
    (Printf.sprintf "levels %d <= log2 n" r.M.max_level)
    true
    (r.M.max_level <= 4)

let test_comm_bound () =
  (* Lemma 8.1: O(E + V log n). *)
  let g = Gen.lower_bound_gn 16 ~x:4 in
  let r = check_mst g in
  let e = G.total_weight g and v = Csap_graph.Mst.weight g in
  let log2n = 4.0 in
  let bound = 8.0 *. (float_of_int e +. (float_of_int v *. log2n)) in
  Alcotest.(check bool)
    (Printf.sprintf "comm %d within O(E + V log n) = %.0f"
       r.M.measures.Csap.Measures.comm bound)
    true
    (float_of_int r.M.measures.Csap.Measures.comm <= bound)

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
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 71);
      Csap_dsim.Delay.Jitter (Csap_graph.Rng.create 72);
      Csap_dsim.Delay.Scaled 0.1;
    ]

let prop_ghs_correct =
  QCheck.Test.make ~count:60 ~name:"GHS = sequential MST (random graphs)"
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
    Alcotest.test_case "equal weights" `Quick test_equal_weights;
    Alcotest.test_case "level bound" `Quick test_level_bound;
    Alcotest.test_case "O(E + V log n) communication" `Quick test_comm_bound;
    Alcotest.test_case "delay models" `Quick test_delay_models;
    QCheck_alcotest.to_alcotest prop_ghs_correct;
  ]
