module M = Csap.Mst_hybrid
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Net = Csap_dsim.Net

let edge_set t =
  Csap_graph.Tree.edges t
  |> List.map (fun (p, c, w) -> (min p c, max p c, w))
  |> List.sort compare

let check_mst ?(delay = Csap_dsim.Delay.Exact) g root =
  let r = M.run ~spec:{ Net.default with Net.delay } g ~root in
  Alcotest.(check bool) "is the canonical MST" true
    (edge_set r.M.mst = edge_set (Csap_graph.Mst.prim g ~root:0));
  r

let test_small_graphs () =
  ignore (check_mst (Gen.path 6 ~w:3) 0);
  ignore (check_mst (Gen.cycle 8 ~w:2) 3);
  ignore (check_mst (Gen.grid 3 4 ~w:5) 0)

let test_min_on_gn () =
  (* On G_n, script-E >> n V, so MST_centr must win and the hybrid's cost
     must track n V, not E. *)
  let g = Gen.lower_bound_gn 16 ~x:8 in
  let r = check_mst g 0 in
  Alcotest.(check bool) "centr wins" true (r.M.winner = M.Mst_centr);
  let nv = 16 * Csap_graph.Mst.weight g in
  Alcotest.(check bool)
    (Printf.sprintf "comm %d = O(nV = %d), below E = %d"
       r.M.measures.Csap.Measures.comm nv (G.total_weight g))
    true
    (r.M.measures.Csap.Measures.comm <= 16 * nv)

let test_min_on_sparse () =
  (* On a light path, E + V log n << n V: GHS must win. The controlled GHS
     pays the Corollary 5.1 envelope on top: O((E + V log n) log^2 c). *)
  let g = Gen.path 32 ~w:1 in
  let r = check_mst g 0 in
  Alcotest.(check bool) "ghs wins" true (r.M.winner = M.Ghs);
  let e = float_of_int (G.total_weight g) in
  let v = float_of_int (Csap_graph.Mst.weight g) in
  let log2 x = log x /. log 2.0 in
  let c = e +. (v *. log2 32.0) in
  let bound = 4.0 *. c *. log2 c *. log2 c in
  Alcotest.(check bool)
    (Printf.sprintf "comm %d <= controlled envelope %.0f"
       r.M.measures.Csap.Measures.comm bound)
    true
    (float_of_int r.M.measures.Csap.Measures.comm <= bound)

let test_delay_models () =
  let g = Gen.lollipop 5 4 ~w:4 in
  List.iter
    (fun delay ->
      ignore (check_mst ~delay g 0))
    [
      Csap_dsim.Delay.Exact;
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 91);
    ]

let prop_hybrid_correct_and_min =
  QCheck.Test.make ~count:40 ~name:"MST_hybrid = MST, cost near min"
    (Gen_qcheck.graph_and_vertex ~max_n:12 ())
    (fun (g, root) ->
      let r = M.run g ~root in
      let e = G.total_weight g in
      let v = Csap_graph.Mst.weight g in
      let n = G.n g in
      let ghs_bound = 8 * (e + (v * 4)) in
      let centr_bound = 8 * n * v in
      edge_set r.M.mst = edge_set (Csap_graph.Mst.prim g ~root:0)
      && r.M.measures.Csap.Measures.comm
         <= (4 * min ghs_bound centr_bound) + (16 * G.max_weight g))

let suite =
  [
    Alcotest.test_case "small graphs" `Quick test_small_graphs;
    Alcotest.test_case "O(nV) side of the min (G_n)" `Quick test_min_on_gn;
    Alcotest.test_case "O(E + V log n) side of the min" `Quick
      test_min_on_sparse;
    Alcotest.test_case "delay models" `Quick test_delay_models;
    QCheck_alcotest.to_alcotest prop_hybrid_correct_and_min;
  ]
