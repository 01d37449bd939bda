module SH = Csap.Spt_hybrid
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Net = Csap_dsim.Net

let check ?(delay = Csap_dsim.Delay.Exact) ?strip g source =
  let r = SH.run ~spec:{ Net.default with Net.delay } ?strip g ~source in
  let { Csap_graph.Paths.dist; _ } = Csap_graph.Paths.dijkstra g ~src:source in
  for v = 0 to G.n g - 1 do
    Alcotest.(check int)
      (Printf.sprintf "depth %d" v)
      dist.(v)
      (Csap_graph.Tree.depth r.SH.tree v)
  done;
  r

let test_small () = ignore (check (Gen.grid 3 4 ~w:3) 0)

let test_total_near_min () =
  let g = Gen.bkj_star_cycle 10 ~heavy:16 in
  let r = check g 0 in
  let synch = (Csap.Spt_synch.run g ~source:0).Csap.Spt_synch.measures in
  let recur =
    (Csap.Spt_recur.run g ~source:0 ~strip:(Csap.Spt_recur.default_strip g))
      .Csap.Spt_recur.measures
  in
  let best = min synch.Csap.Measures.comm recur.Csap.Measures.comm in
  Alcotest.(check bool)
    (Printf.sprintf "total %d <= 8 min(%d, %d)" r.SH.total_comm
       synch.Csap.Measures.comm recur.Csap.Measures.comm)
    true
    (r.SH.total_comm <= 8 * best + 256)

let test_delay_models () =
  let g = Gen.lollipop 4 3 ~w:3 in
  List.iter
    (fun delay -> ignore (check ~delay g 0))
    [ Csap_dsim.Delay.Exact; Csap_dsim.Delay.Near_zero ]

let prop_spt_hybrid_correct =
  QCheck.Test.make ~count:25 ~name:"SPT_hybrid = Dijkstra"
    (Gen_qcheck.graph_and_vertex ~max_n:10 ~max_wmax:8 ())
    (fun (g, source) ->
      let r = SH.run g ~source in
      let { Csap_graph.Paths.dist; _ } =
        Csap_graph.Paths.dijkstra g ~src:source
      in
      let ok = ref true in
      for v = 0 to G.n g - 1 do
        if Csap_graph.Tree.depth r.SH.tree v <> dist.(v) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "small" `Quick test_small;
    Alcotest.test_case "total near the min" `Quick test_total_near_min;
    Alcotest.test_case "delay models" `Quick test_delay_models;
    QCheck_alcotest.to_alcotest prop_spt_hybrid_correct;
  ]
