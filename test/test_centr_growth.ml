module CG = Csap.Centr_growth
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree
module Net = Csap_dsim.Net

let edge_set t =
  Tree.edges t
  |> List.map (fun (p, c, w) -> (min p c, max p c, w))
  |> List.sort compare

let test_mst_matches_prim () =
  let g = Gen.lollipop 5 4 ~w:3 in
  let r = CG.run_mst g ~root:2 in
  Alcotest.(check bool) "same edge set" true
    (edge_set r.CG.grown_tree = edge_set (Csap_graph.Mst.prim g ~root:2))

let test_mst_weighted () =
  let g =
    G.create ~n:5
      [ (0, 1, 4); (1, 2, 7); (2, 3, 1); (3, 4, 9); (0, 4, 2); (1, 3, 3) ]
  in
  let r = CG.run_mst g ~root:0 in
  Alcotest.(check int) "MST weight" (Csap_graph.Mst.weight g)
    (Tree.total_weight r.CG.grown_tree);
  Alcotest.(check int) "phases = n-1" 4 r.CG.phases

let test_spt_matches_dijkstra () =
  let g = Gen.grid 3 4 ~w:2 in
  let r = CG.run_spt g ~root:0 in
  let { Csap_graph.Paths.dist; _ } = Csap_graph.Paths.dijkstra g ~src:0 in
  for v = 0 to G.n g - 1 do
    Alcotest.(check int)
      (Printf.sprintf "depth %d" v)
      dist.(v)
      (Tree.depth r.CG.grown_tree v)
  done

let test_mst_comm_bound () =
  (* Corollary 6.4: O(n V) communication. *)
  let g = Gen.complete 8 ~w:3 in
  let r = CG.run_mst g ~root:0 in
  let bound = 8 * Csap_graph.Mst.weight g in
  Alcotest.(check bool)
    (Printf.sprintf "comm %d <= c n V = %d" r.CG.measures.Csap.Measures.comm
       (8 * bound))
    true
    (r.CG.measures.Csap.Measures.comm <= 8 * bound)

let test_mst_time_bound () =
  (* Corollary 6.4: O(n Diam(MST)) time. *)
  let g = Gen.grid 4 4 ~w:2 in
  let r = CG.run_mst g ~root:0 in
  let mst = Csap_graph.Mst.prim g ~root:0 in
  let bound = float_of_int (16 * (Tree.diameter mst + G.max_weight g)) in
  Alcotest.(check bool) "time O(n Diam(MST))" true
    (r.CG.measures.Csap.Measures.time <= 8.0 *. bound)

let test_delay_robustness () =
  let g = Gen.cycle 9 ~w:5 in
  List.iter
    (fun delay ->
      let r = CG.run_mst ~spec:{ Net.default with Net.delay } g ~root:4 in
      Alcotest.(check bool) "MST under any delays" true
        (Csap_graph.Mst.is_mst g r.CG.grown_tree))
    [
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 21);
      Csap_dsim.Delay.Jitter (Csap_graph.Rng.create 22);
    ]

let prop_mst_correct =
  QCheck.Test.make ~count:50 ~name:"MST_centr = sequential MST"
    (Gen_qcheck.graph_and_vertex ~max_n:12 ())
    (fun (g, root) ->
      let r = CG.run_mst g ~root in
      edge_set r.CG.grown_tree = edge_set (Csap_graph.Mst.prim g ~root))

let prop_spt_correct =
  QCheck.Test.make ~count:50 ~name:"SPT_centr depths = Dijkstra"
    (Gen_qcheck.graph_and_vertex ~max_n:12 ())
    (fun (g, root) ->
      let r = CG.run_spt g ~root in
      let { Csap_graph.Paths.dist; _ } = Csap_graph.Paths.dijkstra g ~src:root in
      let ok = ref true in
      for v = 0 to G.n g - 1 do
        if Tree.depth r.CG.grown_tree v <> dist.(v) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "MST matches Prim" `Quick test_mst_matches_prim;
    Alcotest.test_case "weighted MST" `Quick test_mst_weighted;
    Alcotest.test_case "SPT matches Dijkstra" `Quick test_spt_matches_dijkstra;
    Alcotest.test_case "O(n V) communication" `Quick test_mst_comm_bound;
    Alcotest.test_case "O(n Diam) time" `Quick test_mst_time_bound;
    Alcotest.test_case "delay robustness" `Quick test_delay_robustness;
    QCheck_alcotest.to_alcotest prop_mst_correct;
    QCheck_alcotest.to_alcotest prop_spt_correct;
  ]
