module D = Csap.Dfs_token
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Net = Csap_dsim.Net

let test_path_traversal () =
  let g = Gen.path 5 ~w:3 in
  let r = D.run g ~root:0 in
  Alcotest.(check bool) "spanning" true
    (Csap_graph.Tree.is_spanning_tree_of g r.D.dfs_tree);
  (* On a path the DFS tree is the path itself. *)
  Alcotest.(check int) "tree weight" 12
    (Csap_graph.Tree.total_weight r.D.dfs_tree)

let traversal_weight g (tree : Csap_graph.Tree.t) =
  (* Tree edges carry Forward+Retreat (2 traversals); every non-tree edge is
     attempted from both sides, Forward+Reject twice (4 traversals). *)
  (4 * G.total_weight g) - (2 * Csap_graph.Tree.total_weight tree)

let test_estimates () =
  let g = Gen.cycle 6 ~w:2 in
  let r = D.run g ~root:0 in
  Alcotest.(check int) "center estimate"
    (traversal_weight g r.D.dfs_tree)
    r.D.final_center_estimate;
  Alcotest.(check bool) "root estimate within factor 2" true
    (r.D.final_root_estimate * 2 >= r.D.final_center_estimate
    && r.D.final_root_estimate <= r.D.final_center_estimate)

let test_comm_bound () =
  (* Token traversals are 2E; estimate refreshes add at most ~2x on top. *)
  let g = Gen.complete 7 ~w:4 in
  let r = D.run g ~root:0 in
  let e = G.total_weight g in
  Alcotest.(check bool)
    (Printf.sprintf "comm %d within O(E)=%d" r.D.measures.Csap.Measures.comm e)
    true
    (r.D.measures.Csap.Measures.comm <= 8 * e)

let test_time_equals_comm_shape () =
  (* The token is sequential: under Exact delays, time tracks weighted
     traversal count. *)
  let g = Gen.grid 3 3 ~w:2 in
  let r = D.run g ~root:0 in
  Alcotest.(check bool) "time within O(E)" true
    (r.D.measures.Csap.Measures.time
    <= 8.0 *. float_of_int (G.total_weight g))

let test_each_edge_twice () =
  (* Tree edges are traversed exactly twice, non-tree edges exactly four
     times (twice per endpoint). *)
  let g = Gen.complete 5 ~w:1 in
  let r = D.run g ~root:0 in
  Alcotest.(check int) "center estimate = 4E - 2 w(T)"
    (traversal_weight g r.D.dfs_tree)
    r.D.final_center_estimate

let test_deep_graph_estimate_refreshes () =
  (* A long path forces many doublings; the DFS must still finish and the
     root estimate stays a 2-approximation. *)
  let g = Gen.path 64 ~w:1 in
  let r = D.run g ~root:0 in
  Alcotest.(check bool) "approx" true
    (r.D.final_root_estimate <= r.D.final_center_estimate
    && 2 * r.D.final_root_estimate >= r.D.final_center_estimate)

let prop_dfs_tree_valid =
  QCheck.Test.make ~count:80 ~name:"DFS spans; estimates 2-approximate"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, root) ->
      let r =
        D.run
          ~spec:
            {
              Net.default with
              Net.delay = Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 3);
            }
          g ~root
      in
      Csap_graph.Tree.is_spanning_tree_of g r.D.dfs_tree
      && r.D.final_center_estimate = traversal_weight g r.D.dfs_tree
      && r.D.final_root_estimate <= r.D.final_center_estimate
      && 2 * r.D.final_root_estimate >= r.D.final_center_estimate)

let suite =
  [
    Alcotest.test_case "path traversal" `Quick test_path_traversal;
    Alcotest.test_case "estimates" `Quick test_estimates;
    Alcotest.test_case "O(E) communication" `Quick test_comm_bound;
    Alcotest.test_case "O(E) time" `Quick test_time_equals_comm_shape;
    Alcotest.test_case "every edge exactly twice" `Quick test_each_edge_twice;
    Alcotest.test_case "long path refreshes" `Quick
      test_deep_graph_estimate_refreshes;
    QCheck_alcotest.to_alcotest prop_dfs_tree_valid;
  ]
