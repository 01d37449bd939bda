module SS = Csap.Spt_synch
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Net = Csap_dsim.Net

let states_match_dijkstra g source (states : SS.state array) =
  let { Csap_graph.Paths.dist; _ } = Csap_graph.Paths.dijkstra g ~src:source in
  let ok = ref true in
  Array.iteri
    (fun v (s : SS.state) -> if s.SS.dist <> dist.(v) && v <> source then ok := false)
    states;
  states.(source).SS.dist = 0 && !ok

let test_synchronous_reference () =
  let g = Gen.grid 3 4 ~w:3 in
  let states, comm = SS.run_synchronous g ~source:0 in
  Alcotest.(check bool) "distances correct" true
    (states_match_dijkstra g 0 states);
  (* Every vertex announces exactly once: comm = 2 script-E. *)
  Alcotest.(check int) "comm = 2E" (2 * G.total_weight g) comm

let test_async_pipeline_small () =
  let g = G.create ~n:4 [ (0, 1, 2); (1, 2, 3); (2, 3, 1); (0, 3, 9) ] in
  let r = SS.run g ~source:0 in
  Alcotest.(check bool) "SPT depths" true
    (Csap_graph.Tree.is_spanning_tree_of g r.SS.tree);
  let { Csap_graph.Paths.dist; _ } = Csap_graph.Paths.dijkstra g ~src:0 in
  for v = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "depth %d" v)
      dist.(v)
      (Csap_graph.Tree.depth r.SS.tree v)
  done

let test_async_pipeline_delays () =
  let g = Gen.bkj_star_cycle 7 ~heavy:9 in
  List.iter
    (fun delay ->
      let r = SS.run ~spec:{ Net.default with Net.delay } g ~source:0 in
      let { Csap_graph.Paths.dist; _ } = Csap_graph.Paths.dijkstra g ~src:0 in
      for v = 0 to G.n g - 1 do
        Alcotest.(check int)
          (Printf.sprintf "depth %d" v)
          dist.(v)
          (Csap_graph.Tree.depth r.SS.tree v)
      done)
    [
      Csap_dsim.Delay.Exact;
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 77);
    ]

let test_proto_comm_is_small () =
  (* Corollary 9.1: the protocol part stays O(E) (x2 for normalization). *)
  let g = Gen.grid 4 4 ~w:5 in
  let r = SS.run g ~source:0 in
  Alcotest.(check bool) "proto comm <= 4E" true
    (r.SS.proto_comm <= 4 * G.total_weight g)

let prop_spt_synch_correct =
  QCheck.Test.make ~count:20 ~name:"SPT_synch = Dijkstra (async, random)"
    (Gen_qcheck.graph_and_vertex ~max_n:10 ~max_wmax:9 ())
    (fun (g, source) ->
      let r = SS.run g ~source in
      let { Csap_graph.Paths.dist; _ } =
        Csap_graph.Paths.dijkstra g ~src:source
      in
      let ok = ref true in
      for v = 0 to G.n g - 1 do
        if Csap_graph.Tree.depth r.SS.tree v <> dist.(v) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "synchronous reference" `Quick
      test_synchronous_reference;
    Alcotest.test_case "async pipeline (small)" `Quick
      test_async_pipeline_small;
    Alcotest.test_case "async pipeline (delay models)" `Quick
      test_async_pipeline_delays;
    Alcotest.test_case "protocol communication O(E)" `Quick
      test_proto_comm_is_small;
    QCheck_alcotest.to_alcotest prop_spt_synch_correct;
  ]
