(* The CSR adjacency layout and the all-sources sweeps, checked against
   naive oracles: the flat rows must list exactly the incident edges of
   [Graph.edges] in per-vertex edge-id order, the pool-sharded
   [Paths.all_pairs] must be bit-identical to per-source Dijkstras
   whatever the pool's schedule, and the bound sweep [Paths.extrema] to
   the all-sources [extrema_seq]. *)

module G = Csap_graph.Graph
module P = Csap_graph.Paths
module Gen = Csap_graph.Generators

(* The oracle: vertex [v]'s incident (u, w, id) triples read off the
   edge array in edge-id order — by construction the order the CSR rows
   (and the historical tuple shim) present. *)
let naive_adjacency g =
  let adj = Array.make (G.n g) [] in
  Array.iteri
    (fun id e ->
      adj.(e.G.u) <- (e.G.v, e.G.w, id) :: adj.(e.G.u);
      adj.(e.G.v) <- (e.G.u, e.G.w, id) :: adj.(e.G.v))
    (G.edges g);
  Array.map List.rev adj

let row_of_iter g v =
  let acc = ref [] in
  G.iter_neighbors g v (fun u w id -> acc := (u, w, id) :: !acc);
  List.rev !acc

let check_against_oracle g =
  let oracle = naive_adjacency g in
  let ok = ref true in
  for v = 0 to G.n g - 1 do
    if row_of_iter g v <> oracle.(v) then ok := false;
    let folded =
      List.rev (G.fold_neighbors g v (fun acc u w id -> (u, w, id) :: acc) [])
    in
    if folded <> oracle.(v) then ok := false;
    if G.degree g v <> List.length oracle.(v) then ok := false
  done;
  !ok

let check_edge_id_between g =
  let oracle = naive_adjacency g in
  let ok = ref true in
  for u = 0 to G.n g - 1 do
    for v = 0 to G.n g - 1 do
      let expect =
        match List.find_opt (fun (x, _, _) -> x = v) oracle.(u) with
        | Some (_, _, id) when u <> v -> id
        | _ -> -1
      in
      if G.edge_id_between g u v <> expect then ok := false
    done
  done;
  !ok

(* Structural invariants of the flat rows themselves. *)
let check_layout g =
  let n = G.n g and m = G.m g in
  let off = G.csr_offsets g in
  let nbr = G.csr_neighbors g in
  let wt = G.csr_weights g in
  let eid = G.csr_edge_ids g in
  let ok = ref (Array.length off = n + 1 && off.(0) = 0 && off.(n) = 2 * m) in
  ok :=
    !ok
    && Array.length nbr = 2 * m
    && Array.length wt = 2 * m
    && Array.length eid = 2 * m;
  for v = 0 to n - 1 do
    ok := !ok && off.(v) <= off.(v + 1);
    for i = off.(v) to off.(v + 1) - 1 do
      (* Each slot describes a real edge incident to [v]. *)
      let e = G.edge g eid.(i) in
      ok :=
        !ok
        && G.other_endpoint e v = nbr.(i)
        && e.G.w = wt.(i)
        && (e.G.u = v || e.G.v = v)
    done
  done;
  !ok

let test_layout_families () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " layout") true (check_layout g);
      Alcotest.(check bool) (name ^ " rows") true (check_against_oracle g);
      Alcotest.(check bool)
        (name ^ " edge ids") true (check_edge_id_between g))
    [
      ("path", Gen.path 6 ~w:3);
      ("star", Gen.star 7 ~w:2);
      ("complete", Gen.complete 9 ~w:4);
      ("single edge", G.create ~n:2 [ (0, 1, 5) ]);
      ("edgeless", G.create ~n:3 []);
    ]

let prop_rows_match_oracle =
  QCheck.Test.make ~count:150 ~name:"iter/fold/degree = edge-list oracle"
    (Gen_qcheck.connected_graph_gen ())
    (fun g -> check_against_oracle g && check_layout g)

let prop_edge_id_matches_oracle =
  QCheck.Test.make ~count:80 ~name:"edge_id_between = edge-list oracle"
    (Gen_qcheck.connected_graph_gen ())
    check_edge_id_between

let prop_dijkstra_matches_tuple =
  QCheck.Test.make ~count:100 ~name:"CSR dijkstra = tuple dijkstra"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, src) ->
      let a = P.dijkstra g ~src and b = P.dijkstra_tuple g ~src in
      a.P.dist = b.P.dist && a.P.parent = b.P.parent)

(* Seeded instances above [Paths]'s sequential cutoff, so the parallel
   [all_pairs] sharding genuinely runs; a pool wider than the sweep's
   task count never exists, but 3 domains on >= 64 sources exercises
   stealing. *)
let big_graph seed =
  Gen.random_connected (Csap_graph.Rng.create seed) 96 ~extra_edges:160
    ~wmax:24

let test_bounded_extrema_matches_seq () =
  List.iter
    (fun seed ->
      let g = big_graph seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        true
        (P.extrema g = P.extrema_seq g))
    [ 1; 2; 3; 4; 5 ]

let test_parallel_all_pairs_matches_dijkstra () =
  let pool = Csap_pool.create ~domains:3 () in
  let g = big_graph 11 in
  let rows = P.all_pairs ~pool g in
  Alcotest.(check int) "row count" (G.n g) (Array.length rows);
  List.iter
    (fun src ->
      Alcotest.(check bool)
        (Printf.sprintf "row %d" src)
        true
        (rows.(src) = (P.dijkstra g ~src).P.dist))
    [ 0; 1; G.n g / 2; G.n g - 1 ]

let prop_bounded_extrema_matches_seq =
  QCheck.Test.make ~count:300 ~name:"extrema = extrema_seq"
    (Gen_qcheck.family_graph_gen ())
    (fun g -> P.extrema g = P.extrema_seq g)

let suite =
  [
    Alcotest.test_case "layout on named families" `Quick test_layout_families;
    QCheck_alcotest.to_alcotest prop_rows_match_oracle;
    QCheck_alcotest.to_alcotest prop_edge_id_matches_oracle;
    QCheck_alcotest.to_alcotest prop_dijkstra_matches_tuple;
    Alcotest.test_case "bounded extrema = all-sources (seeded)" `Quick
      test_bounded_extrema_matches_seq;
    Alcotest.test_case "parallel all_pairs rows = dijkstra" `Quick
      test_parallel_all_pairs_matches_dijkstra;
    QCheck_alcotest.to_alcotest prop_bounded_extrema_matches_seq;
  ]
