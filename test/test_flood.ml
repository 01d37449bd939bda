module F = Csap.Flood
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

let test_tree_and_times () =
  let g = Gen.path 5 ~w:4 in
  let r = F.run g ~source:0 in
  Alcotest.(check bool) "spanning" true
    (Csap_graph.Tree.is_spanning_tree_of g r.F.tree);
  Array.iteri
    (fun v t ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "arrival %d" v)
        (float_of_int (4 * v))
        t)
    r.F.arrival

let test_comm_bound () =
  (* Each edge carries at most two copies: comm <= 2 script-E. *)
  let g = Gen.complete 8 ~w:5 in
  let r = F.run g ~source:3 in
  Alcotest.(check bool) "comm <= 2E" true
    (r.F.measures.Csap.Measures.comm <= 2 * G.total_weight g);
  Alcotest.(check bool) "comm >= E - n*W (most edges crossed)" true
    (r.F.measures.Csap.Measures.comm >= G.total_weight g / 2)

let test_time_bound () =
  (* Under Exact delays the wave arrives along shortest paths: time = ecc. *)
  let g = Gen.grid 4 4 ~w:3 in
  let r = F.run g ~source:0 in
  let ecc = float_of_int (Csap_graph.Paths.eccentricity g 0) in
  Alcotest.(check (float 1e-9)) "time = eccentricity" ecc
    r.F.measures.Csap.Measures.time

let test_tree_is_spt_under_exact_delays () =
  let g = Gen.grid 3 5 ~w:2 in
  let r = F.run g ~source:0 in
  let { Csap_graph.Paths.dist; _ } = Csap_graph.Paths.dijkstra g ~src:0 in
  for v = 0 to G.n g - 1 do
    Alcotest.(check int)
      (Printf.sprintf "depth of %d" v)
      dist.(v)
      (Csap_graph.Tree.depth r.F.tree v)
  done

let test_adversarial_delays_still_span () =
  let g = Gen.lollipop 5 4 ~w:2 in
  List.iter
    (fun delay ->
      let r = F.run ~delay g ~source:6 in
      Alcotest.(check bool) "spanning" true
        (Csap_graph.Tree.is_spanning_tree_of g r.F.tree))
    [
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 8);
      Csap_dsim.Delay.Jitter (Csap_graph.Rng.create 9);
    ]

let prop_flood_spans =
  QCheck.Test.make ~count:60 ~name:"flood spans from any source"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, source) ->
      let r =
        F.run ~delay:(Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 5)) g
          ~source
      in
      Csap_graph.Tree.is_spanning_tree_of g r.F.tree
      && r.F.measures.Csap.Measures.comm <= 2 * G.total_weight g)

let suite =
  [
    Alcotest.test_case "tree and arrival times" `Quick test_tree_and_times;
    Alcotest.test_case "O(E) communication" `Quick test_comm_bound;
    Alcotest.test_case "O(D) time" `Quick test_time_bound;
    Alcotest.test_case "exact delays give the SPT" `Quick
      test_tree_is_spt_under_exact_delays;
    Alcotest.test_case "adversarial delays" `Quick
      test_adversarial_delays_still_span;
    QCheck_alcotest.to_alcotest prop_flood_spans;
  ]
