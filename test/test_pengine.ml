module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree
module Delay = Csap_dsim.Delay
module Pengine = Csap_dsim.Pengine
module Partition = Csap_graph.Partition
module F = Csap.Flood
module S = Csap.Spt_async
module Net = Csap_dsim.Net

(* ---- bit-identity: flood and spt-async vs the sequential engine ------- *)

let flood_fingerprint (r : F.result) =
  ( r.F.measures,
    Array.to_list r.F.arrival,
    List.init (Array.length r.F.arrival) (Tree.parent r.F.tree) )

let spt_fingerprint (r : S.result) =
  ( r.S.measures,
    Array.to_list r.S.dist,
    List.init (Array.length r.S.dist) (Tree.parent r.S.tree) )

(* The delay models exercising both lookahead kinds: static (Exact /
   Scaled / Near_zero) and pre-sampled (the oracles have no static
   bound). The skewed oracles put ε and w side by side on the cut, so
   the tournament tree's minimum decides every window. *)
let delays seed =
  [
    ("exact", Delay.Exact);
    ("scaled", Delay.Scaled 0.5);
    ("near-zero", Delay.Near_zero);
    ("seeded", Delay.seeded seed);
    ("race-crossing", Delay.race_crossing);
    ("slow-edge-0", Delay.slow_edge 0);
  ]

let prop_flood_identical =
  QCheck.Test.make ~count:40
    ~name:"flood: partitioned = sequential (all delays, k in {1,2,4})"
    (QCheck.pair (Gen_qcheck.graph_and_vertex ()) QCheck.(int_bound 1000))
    (fun ((g, source), seed) ->
      List.for_all
        (fun (dname, delay) ->
          let spec = { Net.default with Net.delay } in
          let seq = flood_fingerprint (F.run ~spec g ~source) in
          List.for_all
            (fun k ->
              let k = min k (G.n g) in
              let par =
                flood_fingerprint (F.run ~spec ~domains:k g ~source)
              in
              if par <> seq then
                QCheck.Test.fail_reportf "flood diverged: %s k=%d" dname k
              else true)
            [ 1; 2; 4 ])
        (delays seed))

let prop_spt_async_identical =
  QCheck.Test.make ~count:40
    ~name:"spt-async: partitioned = sequential (all delays, k in {1,2,4})"
    (QCheck.pair (Gen_qcheck.graph_and_vertex ()) QCheck.(int_bound 1000))
    (fun ((g, source), seed) ->
      List.for_all
        (fun (dname, delay) ->
          let spec = { Net.default with Net.delay } in
          let seq = spt_fingerprint (S.run ~spec g ~source) in
          List.for_all
            (fun k ->
              let k = min k (G.n g) in
              let par =
                spt_fingerprint (S.run ~spec ~domains:k g ~source)
              in
              if par <> seq then
                QCheck.Test.fail_reportf "spt-async diverged: %s k=%d" dname k
              else true)
            [ 1; 2; 4 ])
        (delays seed))

(* ---- direct engine use: lookahead, exceptions, rejections ------------- *)

(* A four-hop echo from vertex 0: enough traffic to cross partitions in
   both directions. Returns the event count, the metrics and each
   vertex's last receipt time (written only by its owning domain). *)
let echo_run eng g =
  let n = G.n g in
  let last = Array.make n 0.0 in
  for v = 0 to n - 1 do
    Pengine.set_handler eng v (fun ctx ~src hops ->
        last.(v) <- Pengine.now ctx;
        if hops > 0 then
          G.iter_neighbors g v (fun u _ _ ->
              if u <> src then Pengine.send ctx ~src:v ~dst:u (hops - 1)))
  done;
  Pengine.schedule eng ~vertex:0 ~delay:0.0 (fun ctx ->
      G.iter_neighbors g 0 (fun u _ _ -> Pengine.send ctx ~src:0 ~dst:u 3));
  let events = Pengine.run eng in
  let m = Pengine.metrics eng in
  ( events,
    m.Csap_dsim.Metrics.messages,
    m.Csap_dsim.Metrics.weighted_comm,
    m.Csap_dsim.Metrics.completion_time,
    Array.to_list last )

(* The BFS partitioner must give the same answers as the striped one and
   as a single domain: identity cannot depend on where the cut falls. *)
let prop_bfs_partition_identical =
  QCheck.Test.make ~count:30 ~name:"echo: identical under a BFS partition"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, _) ->
      let delay = Delay.seeded 23 in
      let k = min 3 (G.n g) in
      let one = echo_run (Pengine.create ~delay ~domains:1 g) g in
      let striped = echo_run (Pengine.create ~delay ~domains:k g) g in
      let bfs =
        echo_run
          (Pengine.create ~delay ~partition:(Partition.bfs g ~k) ~domains:k g)
          g
      in
      striped = one && bfs = one)

let test_delay_sets_lookahead () =
  let g = Gen.path 6 ~w:4 in
  let create delay = Pengine.create ~delay ~domains:2 g in
  Alcotest.(check (float 1e-9))
    "exact lookahead" 4.0
    (Pengine.lookahead (create Delay.Exact));
  Alcotest.(check (float 1e-9))
    "scaled lookahead" 2.0
    (Pengine.lookahead (create (Delay.Scaled 0.5)));
  let delay = Delay.seeded 3 in
  let eng = create delay in
  (* The cut is edge {2, 3}: the lookahead is the smaller of its two
     directions' first pre-sampled delays. *)
  let edge_id = G.edge_id_between g 2 3 in
  let first dir =
    let out = [| 0.0 |] in
    Delay.sample_into delay ~edge_id ~dir ~nth:0 ~w:4 out;
    out.(0)
  in
  Alcotest.(check (float 0.0)) "oracle lookahead is pre-sampled"
    (Float.min (first 0) (first 1))
    (Pengine.lookahead eng)

(* A window that cannot advance the clock is refused, not spun on:
   1e20 +. 1.0 = 1e20, so the window [t0, t0 + lookahead) is empty. One
   domain has no cut and delivers at 1e20, as the sequential engine does. *)
let test_empty_window_rejected () =
  let g = Gen.path 2 ~w:1 in
  let run domains =
    let eng = Pengine.create ~domains g in
    Pengine.set_handler eng 1 (fun _ ~src:_ () -> ());
    Pengine.schedule eng ~vertex:0 ~delay:1e20 (fun ctx ->
        Pengine.send ctx ~src:0 ~dst:1 ());
    let events = Pengine.run eng in
    (events, (Pengine.metrics eng).Csap_dsim.Metrics.last_delivery_time)
  in
  Alcotest.(check (pair int (float 0.0)))
    "one domain delivers" (2, 1e20) (run 1);
  Alcotest.(check bool) "two domains refuse the empty window" true
    (match run 2 with exception Invalid_argument _ -> true | _ -> false)

(* A zero delay is outside the paper's (0, w(e)]: on a cut edge it leaves
   no lookahead, so K = 2 refuses it; the sequential engine and a single
   domain (no cut) still run it. *)
let test_zero_delay_oracle () =
  let g = Gen.path 4 ~w:1 in
  let delay =
    Delay.oracle ~name:"zero" (fun ~edge_id:_ ~dir:_ ~nth:_ ~w:_ -> 0.0)
  in
  let seq = F.run ~spec:{ Net.default with Net.delay } g ~source:0 in
  Alcotest.(check (float 0.0))
    "engine runs it" 0.0 seq.F.measures.Csap.Measures.time;
  let events, _, _, _, _ = echo_run (Pengine.create ~delay ~domains:1 g) g in
  Alcotest.(check int) "one domain runs it" 4 events;
  Alcotest.(check bool) "two domains refuse it" true
    (match echo_run (Pengine.create ~delay ~domains:2 g) g with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Replay under K = 2: the pre-sampler asks the recorded oracle for each
   cut slot's next message, which past the recording raises; that leaf
   must read +inf instead of failing the run. *)
let test_recorded_replay_partitioned () =
  let module T = Csap_dsim.Trace in
  let g = Gen.grid 6 6 ~w:3 in
  let recorded, traces =
    T.with_collector (fun () ->
        F.run ~spec:{ Net.default with Net.delay = Delay.seeded 5 } g ~source:0)
  in
  let delay =
    match traces with
    | [ tr ] -> T.recorded tr
    | _ -> Alcotest.fail "expected one trace"
  in
  let replay =
    F.run ~spec:{ Net.default with Net.delay } ~domains:2 g ~source:0
  in
  Alcotest.(check bool) "measures replay" true
    (replay.F.measures = recorded.F.measures);
  Alcotest.(check bool) "arrivals replay" true
    (replay.F.arrival = recorded.F.arrival)

(* Pre-sampled windows cover many events each: a fallback to one window
   per simulated instant would use about one window per event. The
   handler is spt-async's distributed Bellman-Ford. *)
let test_seeded_windows_counted () =
  let g = Gen.grid 30 30 ~w:4 in
  let eng = Pengine.create ~delay:(Delay.seeded 3) ~domains:2 g in
  let dist = Array.make (G.n g) max_int in
  let announce ctx v ~except d =
    G.iter_neighbors g v (fun u w _ ->
        if u <> except then Pengine.send ctx ~src:v ~dst:u (d + w))
  in
  for v = 0 to G.n g - 1 do
    Pengine.set_handler eng v (fun ctx ~src d ->
        if d < dist.(v) then begin
          dist.(v) <- d;
          announce ctx v ~except:src d
        end)
  done;
  Pengine.schedule eng ~vertex:0 ~delay:0.0 (fun ctx ->
      dist.(0) <- 0;
      announce ctx 0 ~except:(-1) 0);
  let events = Pengine.run eng in
  let seq =
    S.run ~spec:{ Net.default with Net.delay = Delay.seeded 3 } g ~source:0
  in
  Alcotest.(check bool) "distances" true (dist = seq.S.dist);
  Alcotest.(check bool)
    (Printf.sprintf "%d windows < %d events / 2" (Pengine.windows eng) events)
    true
    (Pengine.windows eng > 0 && 2 * Pengine.windows eng < events)

let test_order_dependent_delay_rejected () =
  let g = Gen.path 4 ~w:1 in
  let uniform = Delay.Uniform (Csap_graph.Rng.create 1) in
  Alcotest.(check bool)
    "create rejects Uniform" true
    (match Pengine.create ~delay:uniform ~domains:2 g with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_partition_validated () =
  let g = Gen.path 6 ~w:1 in
  let other = Gen.path 6 ~w:1 in
  let part = Partition.striped g ~k:2 in
  Alcotest.(check bool)
    "domains mismatch rejected" true
    (match Pengine.create ~partition:part ~domains:3 g with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool)
    "foreign partition rejected" true
    (match Pengine.create ~partition:part ~domains:2 other with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool)
    "domains < 1 rejected" true
    (match Pengine.create ~domains:0 g with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A handler exception on a worker domain must unwind every domain and
   re-raise in the caller — not deadlock at the next barrier. *)
let test_handler_exception_propagates () =
  let g = Gen.path 6 ~w:1 in
  let eng = Pengine.create ~domains:2 g in
  (* Vertex 5 lives on the second domain and has no handler. *)
  Pengine.set_handler eng 4 (fun ctx ~src:_ () ->
      Pengine.send ctx ~src:4 ~dst:5 ());
  Pengine.schedule eng ~vertex:4 ~delay:0.0 (fun ctx ->
      Pengine.send ctx ~src:4 ~dst:3 ();
      Pengine.send ctx ~src:4 ~dst:5 ());
  Alcotest.(check bool)
    "missing handler raises across domains" true
    (match Pengine.run eng with
    | exception Failure _ -> true
    | _ -> false)

let test_foreign_src_rejected () =
  let g = Gen.path 4 ~w:1 in
  let eng = Pengine.create ~domains:4 g in
  (* The bootstrap runs on vertex 3's domain; sending with src = 0 would
     touch another domain's send counters and must be refused. *)
  Pengine.schedule eng ~vertex:3 ~delay:0.0 (fun ctx ->
      Pengine.send ctx ~src:0 ~dst:1 ());
  Alcotest.(check bool)
    "foreign src rejected" true
    (match Pengine.run eng with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- registry-level routing ------------------------------------------- *)

let test_protocol_domains_knob () =
  let module P = Csap.Protocol in
  let g = Gen.grid 4 4 ~w:2 in
  let entry = P.find_exn "flood" in
  List.iter
    (fun name ->
      let entry = P.find_exn name in
      let seq = P.execute entry (P.Run.make g) in
      let par = P.execute entry (P.Run.make ~domains:3 g) in
      Alcotest.(check bool)
        (name ^ ": registry routes domains to the partitioned engine") true
        (seq.P.Outcome.measures = par.P.Outcome.measures);
      Alcotest.(check bool) (name ^ ": same tree") true
        (match (P.Outcome.tree seq, P.Outcome.tree par) with
        | Some a, Some b ->
          List.for_all
            (fun v -> Tree.parent a v = Tree.parent b v)
            (List.init (G.n g) Fun.id)
        | _ -> false);
      Alcotest.(check (list (pair string string)))
        (name ^ ": domains recorded in info")
        [ ("domains", "3") ]
        par.P.Outcome.info)
    [ "flood"; "spt-async" ];
  (* Unsupported combinations are rejected by uniform validation. *)
  List.iter
    (fun bad ->
      Alcotest.(check bool) "invalid cfg rejected" true
        (match bad () with
        | exception Invalid_argument _ -> true
        | (_ : P.Outcome.t) -> false))
    [
      (fun () -> P.execute (P.find_exn "mst-ghs") (P.Run.make ~domains:2 g));
      (fun () ->
        P.execute entry
          (P.Run.make ~domains:2
             ~delay:(Delay.Uniform (Csap_graph.Rng.create 1))
             g));
      (fun () ->
        P.execute entry
          (P.Run.make ~domains:2
             ~faults:(Csap_dsim.Fault.seeded ~loss:0.1 ~dup:0.0 1)
             g));
      (fun () -> P.execute entry (P.Run.make ~domains:0 g));
    ];
  (* An order-dependent delay model is rejected by validation, with the
     delay-model message, not later inside the partitioned engine. *)
  let expected =
    "flood: domains: partitioned execution requires an order-independent \
     delay model"
  in
  match
    P.execute entry
      (P.Run.make ~domains:2 ~delay:(Delay.Uniform (Csap_graph.Rng.create 1)) g)
  with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "order-dependent delay checked" expected
      (String.sub msg 0 (min (String.length msg) (String.length expected)))
  | _ -> Alcotest.fail "Uniform delay accepted with domains"

(* The partitioned Net backend refuses what it cannot reproduce. *)
let test_net_partitioned_rejections () =
  let module Net = Csap_dsim.Net in
  let g = Gen.path 4 ~w:1 in
  let rejected f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "reliable shim rejected" true
    (rejected (fun () ->
         ignore
           (Net.make ~domains:2
              ~spec:{ Net.default with Net.reliable = true }
              g)));
  Alcotest.(check bool) "fault plan rejected" true
    (rejected (fun () ->
         ignore
           (Net.make ~domains:2
              ~spec:{ Net.default with Net.faults = Some Csap_dsim.Fault.none }
              g)));
  Alcotest.(check bool) "domains < 1 rejected" true
    (rejected (fun () -> ignore (Net.make ~domains:0 g)));
  let net = Net.make ~domains:2 g in
  Alcotest.(check bool) "run limits rejected" true
    (rejected (fun () -> ignore (net.Net.run ~max_events:10 ())))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_flood_identical;
    QCheck_alcotest.to_alcotest prop_spt_async_identical;
    QCheck_alcotest.to_alcotest prop_bfs_partition_identical;
    Alcotest.test_case "create derives lookahead from the delay" `Quick
      test_delay_sets_lookahead;
    Alcotest.test_case "empty window rejected" `Quick
      test_empty_window_rejected;
    Alcotest.test_case "zero-delay oracle rejected across a cut" `Quick
      test_zero_delay_oracle;
    Alcotest.test_case "recorded replay under two domains" `Quick
      test_recorded_replay_partitioned;
    Alcotest.test_case "seeded windows counted" `Quick
      test_seeded_windows_counted;
    Alcotest.test_case "order-dependent delays rejected" `Quick
      test_order_dependent_delay_rejected;
    Alcotest.test_case "partition validated" `Quick test_partition_validated;
    Alcotest.test_case "handler exception propagates" `Quick
      test_handler_exception_propagates;
    Alcotest.test_case "foreign src rejected" `Quick test_foreign_src_rejected;
    Alcotest.test_case "registry domains knob" `Quick
      test_protocol_domains_knob;
    Alcotest.test_case "partitioned Net rejects shim, faults, limits" `Quick
      test_net_partitioned_rejections;
  ]
