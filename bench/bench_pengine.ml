(* Bench PX: partitioned engine bit-identity.

   Flood and spt-async on small graphs, sequential vs partitioned across
   K domains under exact delays (static lookahead) and a seeded oracle
   (pre-sampled lookahead). The [fail] column counts any divergence in
   measures, arrivals, distances or tree parents — it must be zero; the
   CI job asserts it. Correctness is scheduling-blind, so the table is
   the same on any number of CPUs. Scale timings live in bench/perf
   ([scale-part]). *)

module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree
module Delay = Csap_dsim.Delay
module F = Csap.Flood
module S = Csap.Spt_async
module Net = Csap_dsim.Net

let same_tree n a b =
  let ok = ref true in
  for v = 0 to n - 1 do
    if Tree.parent a v <> Tree.parent b v then ok := false
  done;
  !ok

let identity_cases =
  let grid = ("grid5x7", fun () -> Gen.grid 5 7 ~w:3) in
  let rand =
    ( "rand60",
      fun () ->
        Gen.random_connected (Csap_graph.Rng.create 11) 60 ~extra_edges:90
          ~wmax:9 )
  in
  let delays = [ ("exact", Delay.Exact); ("seeded", Delay.seeded 17) ] in
  List.concat_map
    (fun (fname, build) ->
      List.concat_map
        (fun (dname, delay) ->
          List.map (fun k -> (fname, build, dname, delay, k)) [ 2; 4 ])
        delays)
    [ grid; rand ]

let identity_row (fname, build, dname, delay, k) =
  let g = build () in
  let n = G.n g in
  let fs = F.run ~spec:{ Net.default with Net.delay } g ~source:0 in
  let fp = F.run ~spec:{ Net.default with Net.delay } ~domains:k g ~source:0 in
  let flood_ok =
    fs.F.measures = fp.F.measures
    && fs.F.arrival = fp.F.arrival
    && same_tree n fs.F.tree fp.F.tree
  in
  let ss = S.run ~spec:{ Net.default with Net.delay } g ~source:0 in
  let sp = S.run ~spec:{ Net.default with Net.delay } ~domains:k g ~source:0 in
  let spt_ok =
    ss.S.measures = sp.S.measures
    && ss.S.dist = sp.S.dist
    && same_tree n ss.S.tree sp.S.tree
  in
  [
    Report.Str fname;
    Report.Str dname;
    Report.Int k;
    Report.Int fs.F.measures.Csap.Measures.messages;
    Report.Int ss.S.measures.Csap.Measures.messages;
    Report.Int ((if flood_ok then 0 else 1) + if spt_ok then 0 else 2);
  ]

let px () =
  {
    Report.id = "PX";
    title = "partitioned engine (bit-identity)";
    jobs =
      [
        Report.job "identity" (fun () ->
            List.map identity_row identity_cases);
      ];
    render =
      (fun results ->
        Report.subheading
          "bit-identity: sequential vs 2/4-domain runs (fail must be 0; \
           1=flood, 2=spt-async, 3=both)";
        Report.table
          ~columns:[ "family"; "delay"; "k"; "flood_msgs"; "spt_msgs"; "fail" ]
          results.(0));
  }
