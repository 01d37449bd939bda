module E = Csap_dsim.Engine
module F = Csap_dsim.Fault
module T = Csap_dsim.Trace
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

type ping = Ping of int

let all_handlers eng n f =
  for v = 0 to n - 1 do
    E.set_handler eng v (f v)
  done

(* ---- plan construction and validation -------------------------------- *)

let test_plan_validation () =
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> F.seeded ~loss:1.0 7);
  bad (fun () -> F.seeded ~loss:(-0.1) 7);
  bad (fun () -> F.seeded ~dup:1.5 7);
  bad (fun () -> F.seeded ~dup:nan 7);
  bad (fun () ->
      F.seeded
        ~outages:[ { F.edge = None; from_time = 2.0; until_time = 1.0 } ]
        7);
  bad (fun () ->
      F.seeded
        ~outages:[ { F.edge = None; from_time = -1.0; until_time = 1.0 } ]
        7);
  bad (fun () -> F.seeded ~crashes:[ { F.vertex = 0; at = 3.0; restart = 3.0 } ] 7);
  bad (fun () ->
      F.seeded ~crashes:[ { F.vertex = 0; at = 1.0; restart = infinity } ] 7);
  (* Well-formed plans build. *)
  ignore (F.seeded ~loss:0.5 ~dup:1.0 7);
  ignore (F.seeded 7)

let test_seeded_deterministic () =
  let p1 = F.seeded ~loss:0.3 ~dup:0.3 42 in
  let p2 = F.seeded ~loss:0.3 ~dup:0.3 42 in
  let p3 = F.seeded ~loss:0.3 ~dup:0.3 43 in
  let sample (p : F.plan) =
    List.init 200 (fun i ->
        p.F.disposition ~edge_id:(i mod 5) ~dir:(i mod 2) ~nth:i ~now:0.0)
  in
  Alcotest.(check bool) "same seed, same fates" true (sample p1 = sample p2);
  Alcotest.(check bool) "different seed, different fates" false
    (sample p1 = sample p3);
  let fates = sample p1 in
  Alcotest.(check bool) "a 0.3/0.3 plan drops something" true
    (List.mem F.Drop fates);
  Alcotest.(check bool) "a 0.3/0.3 plan duplicates something" true
    (List.exists (function F.Duplicate _ -> true | _ -> false) fates);
  List.iter
    (function
      | F.Duplicate u ->
        Alcotest.(check bool) "dup fraction in (0,1]" true (u > 0.0 && u <= 1.0)
      | _ -> ())
    fates

(* ---- zero-fault plan is bit-identical -------------------------------- *)

let test_none_bit_identical () =
  let g = Gen.grid 4 4 ~w:6 in
  let r, tr =
    T.with_collector (fun () ->
        Csap.Flood.run ~delay:(Csap_dsim.Delay.seeded 5) g ~source:0)
  in
  let r', tr' =
    T.with_collector (fun () ->
        Csap.Flood.run ~delay:(Csap_dsim.Delay.seeded 5) ~faults:F.none g
          ~source:0)
  in
  Alcotest.(check bool) "same measures" true
    (r.Csap.Flood.measures = r'.Csap.Flood.measures);
  Alcotest.(check bool) "same trace" true
    (T.equal (List.hd tr) (List.hd tr'))

let prop_none_bit_identical =
  QCheck.Test.make ~count:30
    ~name:"Fault.none run = fault-free run (measures and arrivals)"
    (Gen_qcheck.graph_and_vertex ~max_n:16 ())
    (fun (g, source) ->
      let delay () = Csap_dsim.Delay.seeded (G.n g + source) in
      let r = Csap.Flood.run ~delay:(delay ()) g ~source in
      let r' = Csap.Flood.run ~delay:(delay ()) ~faults:F.none g ~source in
      r.Csap.Flood.measures = r'.Csap.Flood.measures
      && r.Csap.Flood.arrival = r'.Csap.Flood.arrival)

(* ---- loss, outage, duplication at the engine level ------------------- *)

let drop_all =
  F.make ~name:"drop-all" (fun ~edge_id:_ ~dir:_ ~nth:_ ~now:_ -> F.Drop)

let test_loss_pays_but_never_arrives () =
  let g = Gen.path 2 ~w:4 in
  let eng = E.create ~faults:drop_all g in
  let got = ref 0 in
  all_handlers eng 2 (fun _ ~src:_ (Ping _) -> incr got);
  E.schedule eng ~delay:0.0 (fun () ->
      E.send eng ~src:0 ~dst:1 (Ping 1);
      E.send eng ~src:0 ~dst:1 (Ping 2));
  ignore (E.run eng);
  Alcotest.(check int) "nothing delivered" 0 !got;
  let m = E.metrics eng in
  Alcotest.(check int) "dropped sends still pay comm" 8
    m.Csap_dsim.Metrics.weighted_comm;
  Alcotest.(check int) "dropped sends still count" 2
    m.Csap_dsim.Metrics.messages;
  Alcotest.(check (float 1e-9)) "no delivery, no time" 0.0
    m.Csap_dsim.Metrics.last_delivery_time

let test_outage_window () =
  (* Edge 0 blacked out during [2, 5): a message at t=0 passes, one at
     t=3 is lost, one at t=6 passes. *)
  let g = Gen.path 2 ~w:1 in
  let plan =
    F.seeded
      ~outages:[ { F.edge = Some 0; from_time = 2.0; until_time = 5.0 } ]
      0
  in
  let eng = E.create ~faults:plan g in
  let got = ref [] in
  all_handlers eng 2 (fun _ ~src:_ (Ping k) -> got := k :: !got);
  List.iter
    (fun (at, k) ->
      E.schedule eng ~delay:at (fun () -> E.send eng ~src:0 ~dst:1 (Ping k)))
    [ (0.0, 1); (3.0, 2); (6.0, 3) ];
  ignore (E.run eng);
  Alcotest.(check (list int)) "only the in-window send lost" [ 3; 1 ] !got

let test_duplicate_delivers_twice_costs_once () =
  let g = Gen.path 2 ~w:4 in
  let plan =
    F.make ~name:"dup-all" (fun ~edge_id:_ ~dir:_ ~nth:_ ~now:_ ->
        F.Duplicate 0.25)
  in
  let eng = E.create ~faults:plan g in
  let got = ref [] in
  all_handlers eng 2 (fun _ ~src:_ (Ping k) ->
      got := (k, E.now eng) :: !got);
  E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 9));
  ignore (E.run eng);
  (match List.rev !got with
  | [ (9, t1); (9, t2) ] ->
    (* Exact delay model: original at w = 4. The copy's own delay is
       0.25 * 4 = 1, but the per-directed-edge FIFO clamp forbids it
       overtaking the original, so it lands at t = 4 right behind it. *)
    Alcotest.(check (float 1e-9)) "original at w" 4.0 t1;
    Alcotest.(check (float 1e-9)) "copy clamped behind the original" 4.0 t2
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l));
  let m = E.metrics eng in
  Alcotest.(check int) "the network's copy is free" 4
    m.Csap_dsim.Metrics.weighted_comm;
  Alcotest.(check int) "one protocol message" 1 m.Csap_dsim.Metrics.messages

(* ---- crash-restart at the engine level ------------------------------- *)

let test_crash_restart () =
  let g = Gen.path 3 ~w:2 in
  let plan =
    F.seeded ~crashes:[ { F.vertex = 1; at = 3.0; restart = 10.0 } ] 0
  in
  let eng = E.create ~faults:plan g in
  let got = ref [] in
  let restarted = ref [] in
  all_handlers eng 3 (fun v ~src:_ (Ping k) -> got := (v, k) :: !got);
  E.set_restart_handler eng 1 (fun () ->
      restarted := E.now eng :: !restarted);
  (* In flight across the crash: sent at t=2, would arrive at t=4 while 1
     is down — dropped. *)
  E.schedule eng ~delay:2.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 1));
  (* Sent while down (t=5): dropped at send, and free (the sender is the
     crashed vertex itself for the second one). *)
  E.schedule eng ~delay:5.0 (fun () ->
      E.send eng ~src:0 ~dst:1 (Ping 2);
      Alcotest.(check bool) "down during window" true (E.is_down eng 1);
      E.send eng ~src:1 ~dst:2 (Ping 3));
  (* After restart (t=11): delivered. *)
  E.schedule eng ~delay:11.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 4));
  ignore (E.run eng);
  Alcotest.(check (list (pair int int))) "only the post-restart message"
    [ (1, 4) ] !got;
  Alcotest.(check (list (float 1e-9))) "restart handler ran at restart"
    [ 10.0 ] !restarted;
  Alcotest.(check bool) "back up" false (E.is_down eng 1);
  let m = E.metrics eng in
  (* Ping 1 and Ping 2 pay w=2 each, Ping 3 is free (down sender),
     Ping 4 pays 2. *)
  Alcotest.(check int) "down sender's sends are free" 6
    m.Csap_dsim.Metrics.weighted_comm

let test_reset_clears_fault_state () =
  (* Engine reused faulty-then-clean: the clean trial must be untouched
     by the previous plan — same metrics and trace as a fresh engine. *)
  let g = Gen.grid 3 3 ~w:4 in
  let faulty =
    F.seeded ~loss:0.2 ~dup:0.3
      ~crashes:[ { F.vertex = 4; at = 1.0; restart = 2.0 } ]
      77
  in
  let (reused, fresh), traces =
    T.with_collector (fun () ->
        let engine = Csap.Flood.make_engine g in
        let _faulty_run =
          Csap.Flood.run ~delay:(Csap_dsim.Delay.seeded 3) ~faults:faulty
            ~engine g ~source:0
        in
        let reused =
          Csap.Flood.run ~delay:(Csap_dsim.Delay.seeded 3) ~engine g ~source:0
        in
        let fresh =
          Csap.Flood.run ~delay:(Csap_dsim.Delay.seeded 3) g ~source:0
        in
        (reused, fresh))
  in
  Alcotest.(check bool) "clean-after-faulty measures = fresh clean" true
    (reused.Csap.Flood.measures = fresh.Csap.Flood.measures);
  Alcotest.(check bool) "arrivals too" true
    (reused.Csap.Flood.arrival = fresh.Csap.Flood.arrival);
  (* Two engines were created (reused + fresh); the reused engine's trace
     holds the clean run only (reset clears it) and must equal the fresh
     engine's. *)
  match traces with
  | [ reused_tr; fresh_tr ] ->
    Alcotest.(check bool) "reused engine's clean trace = fresh trace" true
      (T.equal reused_tr fresh_tr)
  | l -> Alcotest.failf "expected 2 traces, got %d" (List.length l)

(* ---- faulty replay --------------------------------------------------- *)

let test_faulty_replay () =
  (* A faulty execution replays exactly: recorded delays + same plan. *)
  let g = Gen.grid 3 3 ~w:5 in
  let plan () = F.seeded ~loss:0.15 ~dup:0.2 9 in
  let delay () = Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 13) in
  let r, traces =
    T.with_collector (fun () ->
        Csap.Flood.run ~delay:(delay ()) ~faults:(plan ()) ~reliable:true g
          ~source:0)
  in
  let tr = List.hd traces in
  let r', traces' =
    T.with_collector (fun () ->
        Csap.Flood.run ~delay:(T.recorded tr) ~faults:(plan ()) ~reliable:true
          g ~source:0)
  in
  Alcotest.(check bool) "identical trace" true
    (T.equal tr (List.hd traces'));
  Alcotest.(check bool) "identical measures" true
    (r.Csap.Flood.measures = r'.Csap.Flood.measures);
  Alcotest.(check int) "identical retransmissions"
    r.Csap.Flood.transport.Csap_dsim.Net.retransmissions
    r'.Csap.Flood.transport.Csap_dsim.Net.retransmissions

(* ---- exactly-once FIFO through the shim (qcheck) --------------------- *)

(* Every vertex streams numbered payloads to every neighbour over the
   shim while the plan drops/duplicates/blacks out; the application must
   see each payload exactly once, in per-sender FIFO order. *)
let prop_exactly_once_fifo =
  QCheck.Test.make ~count:40
    ~name:"shim delivers exactly once, per-edge FIFO, under loss+dup+outage"
    QCheck.(
      pair
        (Gen_qcheck.connected_graph_gen ~max_n:10 ~max_wmax:6 ())
        (int_bound 10_000))
    (fun (g, seed) ->
      let n = G.n g in
      let per_link = 5 in
      let plan =
        Csap_dsim.Fault.seeded ~loss:0.25 ~dup:0.2
          ~outages:
            [ { F.edge = Some 0; from_time = 0.5; until_time = 3.5 } ]
          seed
      in
      let net =
        Csap_dsim.Net.make ~reliable:true ~delay:(Csap_dsim.Delay.seeded seed)
          ~faults:plan g
      in
      let got = Hashtbl.create 64 in
      for v = 0 to n - 1 do
        net.Csap_dsim.Net.set_handler v (fun ~src k ->
            let prev =
              try Hashtbl.find got (src, v) with Not_found -> []
            in
            Hashtbl.replace got (src, v) (k :: prev))
      done;
      net.Csap_dsim.Net.schedule 0 (fun () ->
          for v = 0 to n - 1 do
            G.iter_neighbors g v (fun u _ _ ->
                for k = 0 to per_link - 1 do
                  net.Csap_dsim.Net.send ~src:v ~dst:u k
                done)
          done);
      ignore (net.Csap_dsim.Net.run ());
      let expected = List.init per_link (fun i -> per_link - 1 - i) in
      let ok = ref true in
      for v = 0 to n - 1 do
        G.iter_neighbors g v (fun u _ _ ->
            let l = try Hashtbl.find got (v, u) with Not_found -> [] in
            if l <> expected then ok := false)
      done;
      !ok)

let prop_clean_shim_never_retransmits =
  QCheck.Test.make ~count:30
    ~name:"fault-free shim: no retransmissions, delivered = sends"
    (Gen_qcheck.graph_and_vertex ~max_n:14 ())
    (fun (g, source) ->
      let r =
        Csap.Flood.run ~delay:(Csap_dsim.Delay.seeded source) ~reliable:true g
          ~source
      in
      r.Csap.Flood.transport = Csap_dsim.Net.no_stats)

let suite =
  [
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "seeded plans are deterministic" `Quick
      test_seeded_deterministic;
    Alcotest.test_case "Fault.none is bit-identical" `Quick
      test_none_bit_identical;
    Alcotest.test_case "loss pays but never arrives" `Quick
      test_loss_pays_but_never_arrives;
    Alcotest.test_case "outage window drops in-window sends" `Quick
      test_outage_window;
    Alcotest.test_case "duplicate delivers twice, costs once" `Quick
      test_duplicate_delivers_twice_costs_once;
    Alcotest.test_case "crash-restart: down window, epochs, handler" `Quick
      test_crash_restart;
    Alcotest.test_case "reset clears fault state (faulty-then-clean reuse)"
      `Quick test_reset_clears_fault_state;
    Alcotest.test_case "faulty execution replays exactly" `Quick
      test_faulty_replay;
    QCheck_alcotest.to_alcotest prop_none_bit_identical;
    QCheck_alcotest.to_alcotest prop_exactly_once_fifo;
    QCheck_alcotest.to_alcotest prop_clean_shim_never_retransmits;
  ]
