module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Paths = Csap_graph.Paths
module Delay = Csap_dsim.Delay
module S = Csap.Spt_async
module Net = Csap_dsim.Net

let dijkstra_dist g ~source = (Paths.dijkstra g ~src:source).Paths.dist

(* At quiescence the relaxation wave has explored every improving path,
   so the distances are exact under ANY delay model — the adversarial
   ones merely pay more messages for the same answer. *)
let check_distances name g ~source delay =
  let r = S.run ~spec:{ Net.default with Net.delay } g ~source in
  Alcotest.(check (array int))
    (name ^ " distances")
    (dijkstra_dist g ~source)
    r.S.dist

let test_distances_exact () =
  check_distances "grid" (Gen.grid 4 5 ~w:3) ~source:2 Delay.Exact;
  check_distances "gn" (Gen.lower_bound_gn 12 ~x:2) ~source:0 Delay.Exact

let test_distances_adversarial () =
  let g =
    Gen.random_connected (Csap_graph.Rng.create 3) 25 ~extra_edges:30 ~wmax:9
  in
  List.iter
    (fun (name, d) -> check_distances name g ~source:4 d)
    [
      ("near-zero", Delay.Near_zero);
      ("race", Delay.race_crossing);
      ("seeded", Delay.seeded 77);
      ("uniform", Delay.Uniform (Csap_graph.Rng.create 9));
    ]

(* Under the normalised schedule a candidate of value d arrives at time
   d, so each vertex improves exactly once: at most 2m messages (the
   source announces once, every other vertex re-announces deg - 1), and
   completion time = the weighted eccentricity of the source. *)
let test_exact_is_linear () =
  let g = Gen.grid 6 6 ~w:4 in
  let r = S.run g ~source:0 in
  Alcotest.(check bool)
    "messages <= 2m" true
    (r.S.measures.Csap.Measures.messages <= 2 * G.m g);
  Alcotest.(check (float 1e-9))
    "time = eccentricity"
    (float_of_int (Paths.eccentricity g 0))
    r.S.measures.Csap.Measures.time

(* The tree is a shortest-path tree: every tree path realises the
   distance. (Parents can differ from Dijkstra's tie-break; the paths
   must not.) *)
let test_tree_is_spt () =
  let g =
    Gen.random_connected (Csap_graph.Rng.create 5) 30 ~extra_edges:45 ~wmax:7
  in
  let r =
    S.run ~spec:{ Net.default with Net.delay = Delay.seeded 13 } g ~source:3
  in
  let dist = r.S.dist in
  for v = 0 to G.n g - 1 do
    match Csap_graph.Tree.parent r.S.tree v with
    | None -> Alcotest.(check int) "root distance" 0 dist.(v)
    | Some (p, w) ->
      Alcotest.(check int)
        (Printf.sprintf "tree edge realises distance at %d" v)
        dist.(v)
        (dist.(p) + w)
  done

let prop_distances_match_dijkstra =
  QCheck.Test.make ~count:80 ~name:"spt-async = Dijkstra on random graphs"
    (QCheck.pair (Gen_qcheck.graph_and_vertex ()) QCheck.(int_bound 1000))
    (fun ((g, source), seed) ->
      let r =
        S.run ~spec:{ Net.default with Net.delay = Delay.seeded seed } g ~source
      in
      r.S.dist = dijkstra_dist g ~source)

let test_source_validated () =
  let g = Gen.path 4 ~w:1 in
  Alcotest.(check bool)
    "source out of range rejected" true
    (match S.run g ~source:4 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "distances under exact delays" `Quick
      test_distances_exact;
    Alcotest.test_case "distances under adversarial delays" `Quick
      test_distances_adversarial;
    Alcotest.test_case "exact schedule is message-linear" `Quick
      test_exact_is_linear;
    Alcotest.test_case "tree realises the distances" `Quick test_tree_is_spt;
    QCheck_alcotest.to_alcotest prop_distances_match_dijkstra;
    Alcotest.test_case "source validated" `Quick test_source_validated;
  ]
