(* Cross-cutting tests: engine budget/until semantics, Euler-tour
   properties, brute-force cross-checks for radius/eccentricity, the
   broadcast instance of global functions, and scan-round bounds for
   MST_fast. *)

module E = Csap_dsim.Engine
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree

type ping = Tick of int

let test_engine_comm_budget () =
  (* The budget stops the run mid-flight; resuming without one drains. *)
  let g = Gen.path 6 ~w:10 in
  let eng = E.create g in
  for v = 0 to 5 do
    E.set_handler eng v (fun ~src:_ (Tick k) ->
        if v < 5 then E.send eng ~src:v ~dst:(v + 1) (Tick (k + 1)))
  done;
  E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Tick 0));
  ignore (E.run ~comm_budget:25 eng);
  let mid = (E.metrics eng).Csap_dsim.Metrics.weighted_comm in
  Alcotest.(check bool) "stopped at/over budget" true (mid >= 25 && mid < 50);
  ignore (E.run eng);
  Alcotest.(check int) "drains to the full relay" 50
    (E.metrics eng).Csap_dsim.Metrics.weighted_comm

let test_engine_until_resume_clock () =
  let g = Gen.path 2 ~w:8 in
  let eng = E.create g in
  E.set_handler eng 1 (fun ~src:_ _ -> ());
  E.set_handler eng 0 (fun ~src:_ _ -> ());
  E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Tick 1));
  ignore (E.run ~until:3.0 eng);
  Alcotest.(check (float 1e-9)) "clock parked at the horizon" 3.0 (E.now eng);
  ignore (E.run eng);
  Alcotest.(check (float 1e-9)) "delivery completes" 8.0 (E.now eng)

let test_traffic_vs_messages () =
  let g = Gen.complete 6 ~w:3 in
  let eng = E.create g in
  for v = 0 to 5 do
    E.set_handler eng v (fun ~src:_ _ -> ())
  done;
  E.schedule eng ~delay:0.0 (fun () ->
      for v = 0 to 5 do
        G.iter_neighbors g v (fun u _ _ -> E.send eng ~src:v ~dst:u (Tick v))
      done);
  ignore (E.run eng);
  let total_traffic = Array.fold_left ( + ) 0 (E.edge_traffic eng) in
  Alcotest.(check int) "traffic sums to messages"
    (E.metrics eng).Csap_dsim.Metrics.messages total_traffic

let prop_euler_tour_properties =
  QCheck.Test.make ~count:80 ~name:"euler tour: closed, 2n-1, edges twice"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, root) ->
      let t = Csap_graph.Traversal.spanning_tree_dfs g ~root in
      let tour = Tree.euler_tour t in
      let n = Tree.n t in
      let counts = Hashtbl.create 16 in
      for i = 0 to Array.length tour - 2 do
        let a = min tour.(i) tour.(i + 1) and b = max tour.(i) tour.(i + 1) in
        Hashtbl.replace counts (a, b)
          (1 + try Hashtbl.find counts (a, b) with Not_found -> 0)
      done;
      Array.length tour = (2 * n) - 1
      && tour.(0) = root
      && tour.(Array.length tour - 1) = root
      && Hashtbl.fold (fun _ c acc -> acc && c = 2) counts true
      && Hashtbl.length counts = n - 1)

let prop_tree_path_weight_is_distance =
  QCheck.Test.make ~count:60
    ~name:"tree path weight = dijkstra distance on the tree"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, v) ->
      let t = Csap_graph.Mst.prim g ~root:0 in
      let tg = Tree.to_graph t in
      let { Csap_graph.Paths.dist; _ } = Csap_graph.Paths.dijkstra tg ~src:v in
      let ok = ref true in
      for u = 0 to G.n g - 1 do
        if Tree.path_weight t v u <> dist.(u) then ok := false
      done;
      !ok)

let prop_radius_center_brute_force =
  QCheck.Test.make ~count:40 ~name:"radius/center match brute force"
    (Gen_qcheck.connected_graph_gen ~max_n:12 ())
    (fun g ->
      let n = G.n g in
      let r, c = Csap_graph.Paths.radius_and_center g in
      let brute =
        let best = ref max_int in
        for v = 0 to n - 1 do
          let e = Csap_graph.Paths.eccentricity g v in
          if e < !best then best := e
        done;
        !best
      in
      r = brute && Csap_graph.Paths.eccentricity g c = r)

let test_broadcast () =
  let g = Gen.grid 4 5 ~w:3 in
  let r = Csap.Global_func.broadcast g ~source:7 ~payload:12345 in
  Array.iter
    (fun out -> Alcotest.(check int) "payload everywhere" 12345 out)
    r.Csap.Global_func.outputs;
  let p = Csap_graph.Params.compute g in
  Alcotest.(check bool) "O(V) comm" true
    (float_of_int r.Csap.Global_func.measures.Csap.Measures.comm
    <= 2.0 *. 2.0 *. float_of_int p.Csap_graph.Params.script_v)

let test_mst_fast_round_bound () =
  (* Per phase, each fragment doubles its guess at most log2 W + 1 times. *)
  let g = Gen.lower_bound_gn 16 ~x:4 in
  let r = Csap.Mst_fast.run g in
  let log2w =
    1 + int_of_float (ceil (log (float_of_int (G.max_weight g)) /. log 2.0))
  in
  (* Fragments per phase halve (at least); sum of fragments over phases is
     at most 2n, each contributing <= log2 W + 1 rounds. *)
  let bound = 2 * G.n g * (log2w + 1) in
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d <= %d" r.Csap.Mst_fast.scan_rounds bound)
    true
    (r.Csap.Mst_fast.scan_rounds <= bound)

let test_coarsen_degree_formula () =
  Alcotest.(check int) "bound(16, 4) = ceil(2 * (1 + ln 16))"
    (int_of_float (ceil (2.0 *. (1.0 +. log 16.0))))
    (Csap_cover.Coarsen.degree_bound ~num_clusters:16 ~k:4)

let suite =
  [
    Alcotest.test_case "engine comm budget" `Quick test_engine_comm_budget;
    Alcotest.test_case "engine until/resume" `Quick
      test_engine_until_resume_clock;
    Alcotest.test_case "traffic counters consistent" `Quick
      test_traffic_vs_messages;
    QCheck_alcotest.to_alcotest prop_euler_tour_properties;
    QCheck_alcotest.to_alcotest prop_tree_path_weight_is_distance;
    QCheck_alcotest.to_alcotest prop_radius_center_brute_force;
    Alcotest.test_case "broadcast as a global function" `Quick test_broadcast;
    Alcotest.test_case "MST_fast scan-round bound" `Quick
      test_mst_fast_round_bound;
    Alcotest.test_case "coarsen degree-bound formula" `Quick
      test_coarsen_degree_formula;
  ]
