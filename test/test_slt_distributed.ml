module SD = Csap.Slt_distributed
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree
module Net = Csap_dsim.Net

let check ?(delay = Csap_dsim.Delay.Exact) ?q g root =
  let r = SD.run ~spec:{ Net.default with Net.delay } ?q g ~root in
  let p = Csap_graph.Params.compute g in
  Alcotest.(check bool) "spans" true (Tree.is_spanning_tree_of g r.SD.tree);
  Alcotest.(check bool) "weight bound" true
    (float_of_int (Tree.total_weight r.SD.tree)
    <= Csap.Slt.weight_bound ~q:r.SD.q
         ~script_v:p.Csap_graph.Params.script_v
       +. 1e-9);
  Alcotest.(check bool) "depth bound" true
    (float_of_int (Tree.height r.SD.tree)
    <= Csap.Slt.depth_bound ~q:r.SD.q
         ~script_d:p.Csap_graph.Params.script_d
       +. 1e-9);
  r

let test_matches_sequential () =
  (* Same breakpoint scan, same subgraph: the weights agree with the
     sequential algorithm (tie-breaking in the final SPT may differ, so
     compare the invariant quantities). *)
  let g = Gen.bkj_star_cycle 10 ~heavy:30 in
  let dist_r = check g 0 in
  let seq = Csap.Slt.build ~q:2.0 g ~root:0 in
  Alcotest.(check int) "same tree weight"
    (Tree.total_weight seq.Csap.Slt.tree)
    (Tree.total_weight dist_r.SD.tree);
  Alcotest.(check int) "same height"
    (Tree.height seq.Csap.Slt.tree)
    (Tree.height dist_r.SD.tree)

let test_q_sweep () =
  let g = Gen.bkj_star_cycle 8 ~heavy:25 in
  List.iter (fun q -> ignore (check ~q g 0)) [ 0.5; 1.0; 2.0; 4.0 ]

let test_comm_bound () =
  (* Theorem 2.7: O(V n^2) communication. *)
  let g = Gen.grid 3 4 ~w:3 in
  let r = check g 0 in
  let n = G.n g and v = Csap_graph.Mst.weight g in
  Alcotest.(check bool)
    (Printf.sprintf "comm %d within O(V n^2) = %d"
       r.SD.measures.Csap.Measures.comm (8 * v * n * n))
    true
    (r.SD.measures.Csap.Measures.comm <= 8 * v * n * n)

let test_delay_models () =
  let g = Gen.lollipop 4 3 ~w:2 in
  List.iter
    (fun delay -> ignore (check ~delay g 0))
    [ Csap_dsim.Delay.Near_zero; Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 19) ]

let prop_distributed_slt =
  QCheck.Test.make ~count:25 ~name:"distributed SLT satisfies both bounds"
    (Gen_qcheck.graph_and_vertex ~max_n:10 ~max_wmax:8 ())
    (fun (g, root) ->
      let r = SD.run g ~root in
      let p = Csap_graph.Params.compute g in
      Tree.is_spanning_tree_of g r.SD.tree
      && float_of_int (Tree.total_weight r.SD.tree)
         <= Csap.Slt.weight_bound ~q:2.0
              ~script_v:p.Csap_graph.Params.script_v
            +. 1e-9
      && float_of_int (Tree.height r.SD.tree)
         <= Csap.Slt.depth_bound ~q:2.0
              ~script_d:p.Csap_graph.Params.script_d
            +. 1e-9)

let suite =
  [
    Alcotest.test_case "matches sequential SLT" `Quick test_matches_sequential;
    Alcotest.test_case "q sweep" `Quick test_q_sweep;
    Alcotest.test_case "Theorem 2.7 communication" `Quick test_comm_bound;
    Alcotest.test_case "delay models" `Quick test_delay_models;
    QCheck_alcotest.to_alcotest prop_distributed_slt;
  ]
