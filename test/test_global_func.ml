module GF = Csap.Global_func
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree
module Net = Csap_dsim.Net

let delays seed =
  [
    Csap_dsim.Delay.Exact;
    Csap_dsim.Delay.Uniform (Csap_graph.Rng.create seed);
    Csap_dsim.Delay.Near_zero;
    Csap_dsim.Delay.Jitter (Csap_graph.Rng.create (seed + 1));
  ]

let test_sum_all_outputs () =
  let g = Gen.grid 3 4 ~w:2 in
  let values = Array.init 12 (fun i -> i * i) in
  let expected = Array.fold_left ( + ) 0 values in
  List.iter
    (fun delay ->
      let r =
        GF.run_optimal ~spec:{ Net.default with Net.delay } g ~root:0 ~values
          GF.sum
      in
      Array.iter
        (fun out -> Alcotest.(check int) "sum at every vertex" expected out)
        r.GF.outputs)
    (delays 17)

let test_specs () =
  let g = Gen.cycle 7 ~w:3 in
  let values = [| 4; -2; 9; 0; 7; 9; 1 |] in
  let check spec expected =
    let r = GF.run_optimal g ~root:2 ~values spec in
    Alcotest.(check int) spec.GF.name expected r.GF.outputs.(5)
  in
  check GF.sum 28;
  check GF.max_value 9;
  check GF.min_value (-2);
  check GF.xor (4 lxor (-2) lxor 9 lxor 0 lxor 7 lxor 9 lxor 1)

let test_bool_specs () =
  let g = Gen.path 4 ~w:1 in
  let r =
    GF.run_optimal g ~root:0 ~values:[| true; true; false; true |]
      GF.logical_and
  in
  Alcotest.(check bool) "and" false r.GF.outputs.(3);
  let r =
    GF.run_optimal g ~root:0 ~values:[| false; false; true; false |]
      GF.logical_or
  in
  Alcotest.(check bool) "or" true r.GF.outputs.(0)

let test_comm_is_twice_tree_weight () =
  let g = Gen.grid 4 4 ~w:3 in
  let tree = Csap_graph.Paths.spt g ~src:0 in
  let values = Array.make 16 1 in
  let r = GF.run g ~tree ~values GF.sum in
  Alcotest.(check int) "comm = 2 w(T)"
    (2 * Tree.total_weight tree)
    r.GF.measures.Csap.Measures.comm;
  Alcotest.(check int) "messages = 2 (n-1)" 30
    r.GF.measures.Csap.Measures.messages

let test_upper_bound_theorem () =
  (* Corollary 2.3: O(V) comm and O(D) time via the SLT; check the concrete
     constants implied by the construction at q = 2. *)
  let g = Gen.bkj_star_cycle 10 ~heavy:25 in
  let p = Csap_graph.Params.compute g in
  let values = Array.init (Csap_graph.Graph.n g) (fun i -> i) in
  let r = GF.run_optimal ~q:2.0 g ~root:0 ~values GF.sum in
  let v = p.Csap_graph.Params.script_v and d = p.Csap_graph.Params.script_d in
  Alcotest.(check bool) "comm <= 2 (1+2/q) V" true
    (float_of_int r.GF.measures.Csap.Measures.comm <= 2.0 *. 2.0 *. float_of_int v);
  Alcotest.(check bool) "time <= 2 (2q+1) D" true
    (r.GF.measures.Csap.Measures.time <= 2.0 *. 5.0 *. float_of_int d)

let test_lower_bound_comparison () =
  (* Theorem 2.1: communication is Omega(V): no run can beat w(MST). *)
  let g = Gen.bkj_star_cycle 8 ~heavy:12 in
  let p = Csap_graph.Params.compute g in
  let values = Array.make (Csap_graph.Graph.n g) 1 in
  let r = GF.run_optimal g ~root:0 ~values GF.sum in
  Alcotest.(check bool) "comm >= V" true
    (r.GF.measures.Csap.Measures.comm >= p.Csap_graph.Params.script_v)

let test_rejects_bad_tree () =
  let g = Gen.path 4 ~w:2 in
  let other = Gen.path 4 ~w:3 in
  let tree = Csap_graph.Paths.spt other ~src:0 in
  Alcotest.check_raises "weight mismatch"
    (Invalid_argument "Global_func.run: not a spanning tree of the graph")
    (fun () -> ignore (GF.run g ~tree ~values:[| 1; 2; 3; 4 |] GF.sum))

let prop_global_sum_random =
  QCheck.Test.make ~count:60 ~name:"global sum correct on random graphs"
    (Gen_qcheck.graph_and_vertex ~max_n:16 ())
    (fun (g, root) ->
      let n = Csap_graph.Graph.n g in
      let values = Array.init n (fun i -> (i * 37) mod 101) in
      let r = GF.run_optimal g ~root ~values GF.sum in
      let expected = Array.fold_left ( + ) 0 values in
      Array.for_all (fun x -> x = expected) r.GF.outputs)

let suite =
  [
    Alcotest.test_case "sum reaches every vertex, all delay models" `Quick
      test_sum_all_outputs;
    Alcotest.test_case "int specs" `Quick test_specs;
    Alcotest.test_case "bool specs" `Quick test_bool_specs;
    Alcotest.test_case "comm = 2 w(T)" `Quick test_comm_is_twice_tree_weight;
    Alcotest.test_case "Corollary 2.3 bounds" `Quick test_upper_bound_theorem;
    Alcotest.test_case "Theorem 2.1 lower bound" `Quick
      test_lower_bound_comparison;
    Alcotest.test_case "rejects non-spanning tree" `Quick test_rejects_bad_tree;
    QCheck_alcotest.to_alcotest prop_global_sum_random;
  ]
