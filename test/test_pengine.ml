module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree
module Delay = Csap_dsim.Delay
module Pengine = Csap_dsim.Pengine
module Partition = Csap_graph.Partition
module F = Csap.Flood
module S = Csap.Spt_async

(* ---- bit-identity: flood and spt-async vs the sequential engine ------- *)

let flood_fingerprint (r : F.result) =
  ( r.F.measures,
    Array.to_list r.F.arrival,
    List.init (Array.length r.F.arrival) (Tree.parent r.F.tree) )

let spt_fingerprint (r : S.result) =
  ( r.S.measures,
    Array.to_list r.S.dist,
    List.init (Array.length r.S.dist) (Tree.parent r.S.tree) )

(* The delay models exercising both synchronisation paths: positive
   lookahead (Exact / Scaled / Near_zero) and key-space lockstep (the
   seeded oracle has no static bound). *)
let delays seed =
  [
    ("exact", Delay.Exact);
    ("scaled", Delay.Scaled 0.5);
    ("near-zero", Delay.Near_zero);
    ("seeded", Delay.seeded seed);
  ]

let prop_flood_identical =
  QCheck.Test.make ~count:40
    ~name:"flood: partitioned = sequential (all delays, k in {1,2,4})"
    (QCheck.pair (Gen_qcheck.graph_and_vertex ()) QCheck.(int_bound 1000))
    (fun ((g, source), seed) ->
      List.for_all
        (fun (dname, delay) ->
          let seq = flood_fingerprint (F.run ~delay g ~source) in
          List.for_all
            (fun k ->
              let k = min k (G.n g) in
              let par =
                flood_fingerprint (F.run ~delay ~domains:k g ~source)
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
          let seq = spt_fingerprint (S.run ~delay g ~source) in
          List.for_all
            (fun k ->
              let k = min k (G.n g) in
              let par =
                spt_fingerprint (S.run ~delay ~domains:k g ~source)
              in
              if par <> seq then
                QCheck.Test.fail_reportf "spt-async diverged: %s k=%d" dname k
              else true)
            [ 1; 2; 4 ])
        (delays seed))

(* ---- direct engine use: reset semantics, exceptions, rejections ------- *)

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

let test_reset_reproduces () =
  let g = Gen.path 8 ~w:2 in
  let eng = Pengine.create ~domains:3 g in
  let first = echo_run eng g in
  Pengine.reset eng;
  let second = echo_run eng g in
  Alcotest.(check bool) "reset reproduces the run" true (first = second);
  (* A reset engine carries nothing over: a no-op run processes zero
     events and reports zero metrics. *)
  Pengine.reset eng;
  Alcotest.(check int) "empty run" 0 (Pengine.run eng);
  Alcotest.(check int) "no messages" 0
    (Pengine.metrics eng).Csap_dsim.Metrics.messages

let test_reset_changes_delay_and_lookahead () =
  let g = Gen.path 6 ~w:4 in
  let eng = Pengine.create ~domains:2 g in
  Alcotest.(check (float 1e-9)) "exact lookahead" 4.0 (Pengine.lookahead eng);
  Pengine.reset ~delay:(Delay.Scaled 0.5) eng;
  Alcotest.(check (float 1e-9)) "scaled lookahead" 2.0 (Pengine.lookahead eng);
  Pengine.reset ~delay:(Delay.seeded 3) eng;
  Alcotest.(check (float 1e-9)) "oracle forces lockstep" 0.0
    (Pengine.lookahead eng)

let test_order_dependent_delay_rejected () =
  let g = Gen.path 4 ~w:1 in
  let uniform () = Delay.Uniform (Csap_graph.Rng.create 1) in
  Alcotest.(check bool)
    "create rejects Uniform" true
    (match Pengine.create ~delay:(uniform ()) ~domains:2 g with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let eng = Pengine.create ~domains:2 g in
  Alcotest.(check bool)
    "reset rejects Uniform" true
    (match Pengine.reset ~delay:(uniform ()) eng with
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
      let seq = P.run entry g in
      let par = P.run ~domains:3 entry g in
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
      (fun () -> P.run ~domains:2 (P.find_exn "mst-ghs") g);
      (fun () ->
        P.run ~domains:2
          ~delay:(Delay.Uniform (Csap_graph.Rng.create 1))
          entry g);
      (fun () ->
        P.run ~domains:2
          ~faults:(Csap_dsim.Fault.seeded ~loss:0.1 ~dup:0.0 1)
          entry g);
      (fun () -> P.run ~domains:0 entry g);
    ];
  (* An oblivious adversary is a delay model: an order-dependent one is
     rejected by validation, with the delay-model message, not later
     inside the partitioned engine. *)
  let expected =
    "flood: domains: partitioned execution requires an order-independent \
     delay model"
  in
  match
    P.run ~domains:2
      ~adversary:
        (Csap_dsim.Adversary.Oblivious
           (Delay.Uniform (Csap_graph.Rng.create 1)))
      entry g
  with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "oblivious adversary's delay checked" expected
      (String.sub msg 0 (min (String.length msg) (String.length expected)))
  | _ -> Alcotest.fail "oblivious Uniform adversary accepted with domains"

(* The partitioned Net backend refuses what it cannot reproduce. *)
let test_net_partitioned_rejections () =
  let module Net = Csap_dsim.Net in
  let g = Gen.path 4 ~w:1 in
  let rejected f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "reliable shim rejected" true
    (rejected (fun () -> ignore (Net.make ~domains:2 ~reliable:true g)));
  Alcotest.(check bool) "fault plan rejected" true
    (rejected (fun () ->
         ignore (Net.make ~domains:2 ~faults:Csap_dsim.Fault.none g)));
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
    Alcotest.test_case "reset reproduces a run" `Quick test_reset_reproduces;
    Alcotest.test_case "reset recomputes delay and lookahead" `Quick
      test_reset_changes_delay_and_lookahead;
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
