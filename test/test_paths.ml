module P = Csap_graph.Paths
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

(* Weighted square with a diagonal: 0-1:1, 1-2:1, 2-3:1, 0-3:5, 0-2:10. *)
let square () =
  G.create ~n:4 [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (0, 3, 5); (0, 2, 10) ]

let test_dijkstra_simple () =
  let { P.dist; parent; _ } = P.dijkstra (square ()) ~src:0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3 |] dist;
  Alcotest.(check int) "parent of 2 is 1" 1 parent.(2);
  Alcotest.(check int) "parent of 3 is 2" 2 parent.(3)

let test_dijkstra_unreachable () =
  let g = G.create ~n:3 [ (0, 1, 4) ] in
  let { P.dist; parent; _ } = P.dijkstra g ~src:0 in
  Alcotest.(check int) "unreachable dist" max_int dist.(2);
  Alcotest.(check int) "unreachable parent" (-1) parent.(2)

let test_spt_structure () =
  let t = P.spt (square ()) ~src:0 in
  Alcotest.(check bool) "spans" true
    (Csap_graph.Tree.is_spanning_tree_of (square ()) t);
  Alcotest.(check int) "depth of 3" 3 (Csap_graph.Tree.depth t 3)

let test_spt_disconnected () =
  let g = G.create ~n:3 [ (0, 1, 1) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Paths.spt: graph is disconnected") (fun () ->
      ignore (P.spt g ~src:0))

let test_diameter () =
  Alcotest.(check int) "path diameter" 12
    (P.diameter (Gen.path 5 ~w:3));
  Alcotest.(check int) "cycle diameter" 6
    (P.diameter (Gen.cycle 6 ~w:2));
  Alcotest.(check int) "star diameter" 2 (P.diameter (Gen.star 5 ~w:1))

let test_radius_center () =
  let r, c = P.radius_and_center (Gen.path 5 ~w:1) in
  Alcotest.(check int) "radius" 2 r;
  Alcotest.(check int) "center" 2 c

let test_max_neighbor_distance () =
  (* Heavy edge 0-2 is bypassed by the light path, so d < W. *)
  let g = G.create ~n:3 [ (0, 1, 1); (1, 2, 1); (0, 2, 100) ] in
  Alcotest.(check int) "d" 2 (P.max_neighbor_distance g);
  Alcotest.(check int) "W" 100 (G.max_weight g);
  let chord = Gen.chorded_cycle 12 ~chord_w:50 in
  Alcotest.(check int) "chorded cycle d" 2 (P.max_neighbor_distance chord)

(* The truncated sweep behind [max_neighbor_distance] against the
   all-sources sweep, on a random graph plus one heavy edge to the vertex
   farthest from 0: the light paths bypass it (d < W), so the cut-off
   radius at its endpoints exceeds their local maxima. *)
let test_truncated_d_matches_all_sources () =
  let base =
    Gen.random_connected (Csap_graph.Rng.create 5) 500 ~extra_edges:1000
      ~wmax:30
  in
  let from0 = (P.dijkstra base ~src:0).P.dist in
  let far = ref 0 in
  Array.iteri (fun v d -> if d > from0.(!far) then far := v) from0;
  let edges =
    List.map (fun e -> (e.G.u, e.G.v, e.G.w)) (Array.to_list (G.edges base))
  in
  let g = G.create ~n:500 ((0, !far, 10 * from0.(!far)) :: edges) in
  let d = (P.extrema_seq g).P.max_neighbor in
  Alcotest.(check bool) "d < W" true (d < G.max_weight g);
  Alcotest.(check int) "max_neighbor_distance" d (P.max_neighbor_distance g);
  Alcotest.(check int) "extrema" d (P.extrema g).P.max_neighbor

let test_dist () =
  Alcotest.(check int) "dist" 3 (P.dist (square ()) 0 3);
  Alcotest.(check int) "dist sym" 3 (P.dist (square ()) 3 0)

let prop_dijkstra_vs_bellman_ford =
  QCheck.Test.make ~count:120 ~name:"dijkstra = bellman-ford"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, src) ->
      let a = P.dijkstra g ~src and b = P.bellman_ford g ~src in
      a.P.dist = b.P.dist)

let prop_triangle_inequality =
  QCheck.Test.make ~count:60 ~name:"distances satisfy triangle inequality"
    (Gen_qcheck.connected_graph_gen ~max_n:14 ())
    (fun g ->
      let n = G.n g in
      let d = Array.init n (fun v -> (P.dijkstra g ~src:v).P.dist) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if d.(i).(j) > d.(i).(k) + d.(k).(j) then ok := false
          done
        done
      done;
      !ok)

let prop_spt_depth_is_distance =
  QCheck.Test.make ~count:100 ~name:"SPT depth equals weighted distance"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, src) ->
      let t = P.spt g ~src in
      let { P.dist; _ } = P.dijkstra g ~src in
      let ok = ref true in
      for v = 0 to G.n g - 1 do
        if Csap_graph.Tree.depth t v <> dist.(v) then ok := false
      done;
      !ok)

let prop_spt_weight_bound =
  QCheck.Test.make ~count:80 ~name:"Fact 6.5: w(SPT) <= (n-1) * V"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, src) ->
      let t = P.spt g ~src in
      Csap_graph.Tree.total_weight t
      <= (G.n g - 1) * Csap_graph.Mst.weight g)

(* The indexed-heap Dijkstra must reproduce the historical lazy-deletion
   implementation bit for bit — distances AND the parent tie-breaking. *)
let check_dijkstra_matches_lazy g ~src =
  let a = P.dijkstra g ~src in
  let b = P.dijkstra_lazy g ~src in
  a.P.dist = b.P.dist && a.P.parent = b.P.parent

let test_dijkstra_regression_families () =
  let families =
    [
      ("grid", Csap_graph.Generators.grid 6 7 ~w:5);
      ("bkj", Csap_graph.Generators.bkj_star_cycle 24 ~heavy:40);
      ("chorded", Csap_graph.Generators.chorded_cycle 20 ~chord_w:64);
      ("gn", Csap_graph.Generators.lower_bound_gn 12 ~x:4);
      ("complete", Csap_graph.Generators.complete 12 ~w:3);
      ( "random",
        Csap_graph.Generators.random_connected (Csap_graph.Rng.create 42) 40
          ~extra_edges:60 ~wmax:9 );
    ]
  in
  List.iter
    (fun (name, g) ->
      for src = 0 to min 4 (G.n g - 1) do
        Alcotest.(check bool)
          (Printf.sprintf "%s src=%d dist+parent unchanged" name src)
          true
          (check_dijkstra_matches_lazy g ~src)
      done)
    families

let prop_dijkstra_matches_lazy =
  QCheck.Test.make ~count:150
    ~name:"indexed-heap dijkstra = lazy dijkstra (dist and parent)"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, src) -> check_dijkstra_matches_lazy g ~src)

let prop_extrema_consistent =
  QCheck.Test.make ~count:150
    ~name:"extrema agrees with per-vertex eccentricities"
    (Gen_qcheck.family_graph_gen ())
    (fun g ->
      let e = P.extrema g in
      let ecc = Array.init (G.n g) (P.eccentricity g) in
      let diameter = Array.fold_left max 0 ecc in
      let radius = Array.fold_left min max_int ecc in
      let rec first_center v =
        if ecc.(v) = radius then v else first_center (v + 1)
      in
      e.P.diameter = diameter
      && e.P.radius = radius
      && e.P.center = first_center 0
      && e.P.max_neighbor = P.max_neighbor_distance g)

let suite =
  [
    Alcotest.test_case "dijkstra on square" `Quick test_dijkstra_simple;
    Alcotest.test_case "dijkstra regression vs lazy heap" `Quick
      test_dijkstra_regression_families;
    Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
    Alcotest.test_case "SPT structure" `Quick test_spt_structure;
    Alcotest.test_case "SPT rejects disconnected" `Quick test_spt_disconnected;
    Alcotest.test_case "diameters" `Quick test_diameter;
    Alcotest.test_case "radius and center" `Quick test_radius_center;
    Alcotest.test_case "max neighbour distance d" `Quick
      test_max_neighbor_distance;
    Alcotest.test_case "truncated d = all-sources d (n=500, d < W)" `Quick
      test_truncated_d_matches_all_sources;
    Alcotest.test_case "pairwise dist" `Quick test_dist;
    QCheck_alcotest.to_alcotest prop_dijkstra_matches_lazy;
    QCheck_alcotest.to_alcotest prop_extrema_consistent;
    QCheck_alcotest.to_alcotest prop_dijkstra_vs_bellman_ford;
    QCheck_alcotest.to_alcotest prop_triangle_inequality;
    QCheck_alcotest.to_alcotest prop_spt_depth_is_distance;
    QCheck_alcotest.to_alcotest prop_spt_weight_bound;
  ]
