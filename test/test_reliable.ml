module E = Csap_dsim.Engine
module R = Csap_dsim.Reliable
module F = Csap_dsim.Fault
module Net = Csap_dsim.Net
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Mst = Csap_graph.Mst
module Tree = Csap_graph.Tree

(* A plan that drops the first [k] data-bearing attempts on directed
   edge (edge_id=0, dir=0) and passes everything else. With the shim on
   a single edge, dir 0 carries data and dir 1 carries acks. *)
let drop_first_data k =
  F.make
    ~name:(Printf.sprintf "drop-first-%d" k)
    (fun ~edge_id ~dir ~nth ~now:_ ->
      if edge_id = 0 && dir = 0 && nth < k then F.Drop else F.Pass)

let shim_on_path ?(rto = 3.0) ?(max_rto = 64.0) ~faults ~w () =
  let g = Gen.path 2 ~w in
  let eng = E.create ~faults g in
  let shim = R.create ~rto ~max_rto eng in
  (g, eng, shim)

let collect_handler got v = fun ~src k -> got := (v, src, k) :: !got

let test_retransmission_recovers () =
  let _, eng, shim = shim_on_path ~faults:(drop_first_data 1) ~w:2 () in
  let got = ref [] in
  R.set_handler shim 0 (collect_handler got 0);
  R.set_handler shim 1 (collect_handler got 1);
  E.schedule eng ~delay:0.0 (fun () -> R.send shim ~src:0 ~dst:1 42);
  ignore (E.run eng);
  Alcotest.(check (list (triple int int int))) "delivered despite the drop"
    [ (1, 0, 42) ] !got;
  Alcotest.(check bool) "retransmitted at least once" true
    (R.retransmissions shim >= 1);
  Alcotest.(check int) "delivered exactly once" 1 (R.delivered shim);
  Alcotest.(check int) "nothing left unacked" 0 (R.in_flight shim);
  Alcotest.(check bool) "receiver acked" true (R.acks_sent shim >= 1)

let test_backoff_doubles () =
  (* Dropping the first 3 attempts: timeouts fire at rto*w, then 2x,
     then 4x — the 4th attempt (nth=3) passes and lands at
     (1 + 2 + 4) * rto * w + w. *)
  let w = 2 and rto = 3.0 in
  let _, eng, shim = shim_on_path ~rto ~faults:(drop_first_data 3) ~w () in
  let at = ref nan in
  R.set_handler shim 0 (fun ~src:_ _ -> ());
  R.set_handler shim 1 (fun ~src:_ _ -> at := E.now eng);
  E.schedule eng ~delay:0.0 (fun () -> R.send shim ~src:0 ~dst:1 1);
  ignore (E.run eng);
  let expect = (7.0 *. rto *. float_of_int w) +. float_of_int w in
  Alcotest.(check (float 1e-9)) "exponential backoff timing" expect !at;
  Alcotest.(check int) "3 retransmissions" 3 (R.retransmissions shim)

let test_rto_cap_and_reset () =
  (* max_rto caps the backoff: with rto=1, max_rto=2 and 3 drops, the
     waits are w, 2w, 2w (capped), so delivery at 5w + w. *)
  let w = 3 in
  let _, eng, shim =
    shim_on_path ~rto:1.0 ~max_rto:2.0 ~faults:(drop_first_data 3) ~w ()
  in
  let at = ref nan in
  R.set_handler shim 0 (fun ~src:_ _ -> ());
  R.set_handler shim 1 (fun ~src:_ _ -> at := E.now eng);
  E.schedule eng ~delay:0.0 (fun () -> R.send shim ~src:0 ~dst:1 1);
  ignore (E.run eng);
  Alcotest.(check (float 1e-9)) "capped backoff timing"
    (float_of_int ((5 * w) + w))
    !at

let test_duplicate_suppressed () =
  let plan =
    F.make ~name:"dup-data" (fun ~edge_id:_ ~dir ~nth:_ ~now:_ ->
        if dir = 0 then F.Duplicate 0.5 else F.Pass)
  in
  let _, eng, shim = shim_on_path ~faults:plan ~w:4 () in
  let got = ref [] in
  R.set_handler shim 0 (fun ~src:_ _ -> ());
  R.set_handler shim 1 (fun ~src:_ k -> got := k :: !got);
  E.schedule eng ~delay:0.0 (fun () ->
      R.send shim ~src:0 ~dst:1 1;
      R.send shim ~src:0 ~dst:1 2);
  ignore (E.run eng);
  Alcotest.(check (list int)) "each payload once, in order" [ 2; 1 ] !got;
  Alcotest.(check int) "delivered counts app deliveries" 2
    (R.delivered shim)

let test_ack_loss_recovered () =
  (* Acks flow on dir=1; dropping the first ack forces a retransmission
     of already-delivered data, which the receiver absorbs. *)
  let plan =
    F.make ~name:"drop-first-ack" (fun ~edge_id:_ ~dir ~nth ~now:_ ->
        if dir = 1 && nth = 0 then F.Drop else F.Pass)
  in
  let _, eng, shim = shim_on_path ~faults:plan ~w:2 () in
  let got = ref [] in
  R.set_handler shim 0 (fun ~src:_ _ -> ());
  R.set_handler shim 1 (fun ~src:_ k -> got := k :: !got);
  E.schedule eng ~delay:0.0 (fun () -> R.send shim ~src:0 ~dst:1 7);
  ignore (E.run eng);
  Alcotest.(check (list int)) "still exactly once" [ 7 ] !got;
  Alcotest.(check bool) "data was retransmitted" true
    (R.retransmissions shim >= 1);
  Alcotest.(check int) "eventually acked" 0 (R.in_flight shim)

let test_out_of_order_buffered () =
  (* Drop the first copy of seqno 0 only: seqno 1 arrives first and must
     wait; the retransmitted 0 releases both in order. *)
  let plan =
    F.make ~name:"drop-nth0" (fun ~edge_id:_ ~dir ~nth ~now:_ ->
        if dir = 0 && nth = 0 then F.Drop else F.Pass)
  in
  let _, eng, shim = shim_on_path ~faults:plan ~w:2 () in
  let got = ref [] in
  R.set_handler shim 0 (fun ~src:_ _ -> ());
  R.set_handler shim 1 (fun ~src:_ k -> got := (k, E.now eng) :: !got);
  E.schedule eng ~delay:0.0 (fun () ->
      R.send shim ~src:0 ~dst:1 10;
      R.send shim ~src:0 ~dst:1 11);
  ignore (E.run eng);
  (match List.rev !got with
  | [ (10, t10); (11, t11) ] ->
    Alcotest.(check bool) "FIFO order restored" true (t10 <= t11)
  | l -> Alcotest.failf "expected [10;11], got %d deliveries" (List.length l));
  Alcotest.(check (list int)) "payload order" [ 11; 10 ]
    (List.map fst !got)

let test_no_edge_rejected () =
  let g = Gen.path 3 ~w:1 in
  let shim = R.create (E.create g) in
  Alcotest.check_raises "non-edge send"
    (Invalid_argument "Reliable.send: no edge between 0 and 2") (fun () ->
      R.send shim ~src:0 ~dst:2 0)

(* ---- crash-restart regressions through whole protocols --------------- *)

let test_crash_mid_flood () =
  (* Crash a cut vertex of the path mid-broadcast: the wave must still
     cover the graph once it restarts. *)
  let g = Gen.path 6 ~w:2 in
  (* Down from the start: the cut vertex holds the wave back until its
     restart at t = 30, so completion time witnesses the crash. *)
  let faults =
    F.seeded ~loss:0.1
      ~crashes:[ { F.vertex = 2; at = 0.0; restart = 30.0 } ]
      21
  in
  let r =
    Csap.Flood.run ~delay:(Csap_dsim.Delay.seeded 4) ~faults ~reliable:true g
      ~source:0
  in
  Alcotest.(check bool) "spanning tree despite the crash" true
    (Tree.is_spanning_tree_of g r.Csap.Flood.tree);
  Alcotest.(check int) "vertex 2 restarted once" 1
    r.Csap.Flood.transport.Net.restarts;
  Alcotest.(check bool) "wave stalled behind the crash" true
    (r.Csap.Flood.measures.Csap.Measures.time >= 30.0)

let test_crash_mid_ghs () =
  let g =
    Csap_graph.Generators.random_connected (Csap_graph.Rng.create 5) 10
      ~extra_edges:10 ~wmax:8
  in
  let faults =
    F.seeded ~loss:0.08 ~dup:0.1
      ~crashes:[ { F.vertex = 3; at = 2.0; restart = 20.0 } ]
      33
  in
  let r =
    Csap.Mst_ghs.run ~delay:(Csap_dsim.Delay.seeded 6) ~faults ~reliable:true g
  in
  Alcotest.(check bool) "MST despite crash + loss + dup" true
    (Mst.is_mst g r.Csap.Mst_ghs.mst);
  Alcotest.(check int) "restart observed" 1
    r.Csap.Mst_ghs.transport.Net.restarts

let test_crash_during_outage_spt () =
  (* The synchronizer pipeline under a compound plan: loss + outage +
     crash, reliable transport. Oracle: Dijkstra distances. *)
  let g = Gen.grid 3 3 ~w:4 in
  let faults =
    F.seeded ~loss:0.1
      ~outages:[ { F.edge = Some 2; from_time = 1.0; until_time = 6.0 } ]
      ~crashes:[ { F.vertex = 5; at = 2.0; restart = 9.0 } ]
      55
  in
  let r =
    Csap.Spt_synch.run ~delay:(Csap_dsim.Delay.seeded 8) ~faults
      ~reliable:true g ~source:0
  in
  let sp = Csap_graph.Paths.dijkstra g ~src:0 in
  let dist_ok = ref true in
  for v = 0 to G.n g - 1 do
    let rec go v acc =
      match Tree.parent r.Csap.Spt_synch.tree v with
      | None -> acc
      | Some (p, w) -> go p (acc + w)
    in
    if go v 0 <> sp.Csap_graph.Paths.dist.(v) then dist_ok := false
  done;
  Alcotest.(check bool) "SPT exact under compound faults" true !dist_ok

let test_net_make_picks_transport () =
  let g = Gen.path 2 ~w:1 in
  let plain = Net.make g in
  let rel = Net.make ~reliable:true g in
  Alcotest.(check int) "plain reports zero retransmissions" 0
    (plain.Net.retransmissions ());
  Alcotest.(check int) "reliable starts at zero" 0 (rel.Net.retransmissions ());
  Alcotest.(check bool) "same graph" true
    (G.id plain.Net.graph = G.id rel.Net.graph)

let test_create_validation () =
  let g = Gen.path 2 ~w:1 in
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> R.create ~rto:0.0 (E.create g));
  bad (fun () -> R.create ~rto:4.0 ~max_rto:2.0 (E.create g))

(* ---- property: GHS under pure loss stays correct ---------------------- *)

let prop_ghs_reliable_under_loss =
  QCheck.Test.make ~count:15 ~name:"reliable GHS computes the MST under loss"
    QCheck.(
      pair
        (Gen_qcheck.connected_graph_gen ~max_n:9 ~max_wmax:8 ())
        (int_bound 10_000))
    (fun (g, seed) ->
      let faults = F.seeded ~loss:0.15 ~dup:0.1 seed in
      let r =
        Csap.Mst_ghs.run ~delay:(Csap_dsim.Delay.seeded seed) ~faults
          ~reliable:true g
      in
      Mst.is_mst g r.Csap.Mst_ghs.mst)

let suite =
  [
    Alcotest.test_case "retransmission recovers a dropped message" `Quick
      test_retransmission_recovers;
    Alcotest.test_case "timeout backoff doubles" `Quick test_backoff_doubles;
    Alcotest.test_case "backoff capped at max_rto; reset on progress" `Quick
      test_rto_cap_and_reset;
    Alcotest.test_case "network duplicates suppressed" `Quick
      test_duplicate_suppressed;
    Alcotest.test_case "lost ack recovered, no double delivery" `Quick
      test_ack_loss_recovered;
    Alcotest.test_case "out-of-order arrivals buffered to FIFO" `Quick
      test_out_of_order_buffered;
    Alcotest.test_case "send to non-edge rejected" `Quick
      test_no_edge_rejected;
    Alcotest.test_case "crash mid-flood still spans" `Quick
      test_crash_mid_flood;
    Alcotest.test_case "crash mid-GHS still yields the MST" `Quick
      test_crash_mid_ghs;
    Alcotest.test_case "SPT pipeline exact under compound faults" `Quick
      test_crash_during_outage_spt;
    Alcotest.test_case "Net.make picks the transport" `Quick
      test_net_make_picks_transport;
    Alcotest.test_case "Reliable.create validates rto" `Quick
      test_create_validation;
    QCheck_alcotest.to_alcotest prop_ghs_reliable_under_loss;
  ]
