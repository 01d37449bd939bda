(* The Boxed event queue is exactly what this file cross-checks the
   packed queue against — the oracle use the alert exists to protect. *)
[@@@alert "-boxed_oracle"]

module E = Csap_dsim.Engine
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

type ping = Ping of int

let test_delivery_and_cost () =
  let g = Gen.path 3 ~w:5 in
  let eng = E.create g in
  let got = ref [] in
  E.set_handler eng 1 (fun ~src (Ping k) -> got := (src, k) :: !got);
  E.set_handler eng 0 (fun ~src:_ _ -> ());
  E.set_handler eng 2 (fun ~src:_ _ -> ());
  E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 7));
  ignore (E.run eng);
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 7) ] !got;
  let m = E.metrics eng in
  Alcotest.(check int) "weighted comm" 5 m.Csap_dsim.Metrics.weighted_comm;
  Alcotest.(check int) "messages" 1 m.Csap_dsim.Metrics.messages;
  Alcotest.(check (float 1e-9)) "time = weight" 5.0
    m.Csap_dsim.Metrics.completion_time

let test_non_edge_rejected () =
  let g = Gen.path 3 ~w:1 in
  let eng = E.create g in
  Alcotest.check_raises "non-edge"
    (Invalid_argument "Engine.send: no edge between 0 and 2") (fun () ->
      E.send eng ~src:0 ~dst:2 (Ping 0))

let test_missing_handler () =
  let g = Gen.path 2 ~w:1 in
  let eng = E.create g in
  E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 0));
  Alcotest.check_raises "no handler"
    (Failure "Engine: no handler at vertex 1 (message sent from 0)")
    (fun () -> ignore (E.run eng))

let test_fifo_order () =
  (* Under random delays, two messages on the same directed edge must still
     arrive in send order. *)
  let g = Gen.path 2 ~w:10 in
  let rng = Csap_graph.Rng.create 99 in
  let eng = E.create ~delay:(Csap_dsim.Delay.Uniform rng) g in
  let got = ref [] in
  E.set_handler eng 1 (fun ~src:_ (Ping k) -> got := k :: !got);
  E.set_handler eng 0 (fun ~src:_ _ -> ());
  E.schedule eng ~delay:0.0 (fun () ->
      for k = 1 to 50 do
        E.send eng ~src:0 ~dst:1 (Ping k)
      done);
  ignore (E.run eng);
  Alcotest.(check (list int)) "fifo" (List.init 50 (fun i -> 50 - i)) !got

let test_relay_time_accumulates () =
  (* A token relayed along a weight-3 path of 4 edges finishes at time 12. *)
  let g = Gen.path 5 ~w:3 in
  let eng = E.create g in
  for v = 0 to 4 do
    E.set_handler eng v (fun ~src:_ (Ping k) ->
        if v < 4 then E.send eng ~src:v ~dst:(v + 1) (Ping (k + 1)))
  done;
  E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 0));
  ignore (E.run eng);
  let m = E.metrics eng in
  Alcotest.(check (float 1e-9)) "relay time" 12.0
    m.Csap_dsim.Metrics.completion_time;
  Alcotest.(check int) "relay comm" 12 m.Csap_dsim.Metrics.weighted_comm

let test_run_until () =
  let g = Gen.path 2 ~w:10 in
  let eng = E.create g in
  E.set_handler eng 1 (fun ~src:_ _ -> ());
  E.set_handler eng 0 (fun ~src:_ _ -> ());
  E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 1));
  let processed = E.run ~until:5.0 eng in
  Alcotest.(check int) "only the local event ran" 1 processed;
  Alcotest.(check bool) "still pending" false (E.quiescent eng);
  ignore (E.run eng);
  Alcotest.(check bool) "drained" true (E.quiescent eng)

let test_max_events () =
  (* Two nodes ping-pong forever; max_events must stop the run. *)
  let g = Gen.path 2 ~w:1 in
  let eng = E.create g in
  E.set_handler eng 0 (fun ~src:_ (Ping k) ->
      E.send eng ~src:0 ~dst:1 (Ping (k + 1)));
  E.set_handler eng 1 (fun ~src:_ (Ping k) ->
      E.send eng ~src:1 ~dst:0 (Ping (k + 1)));
  E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 0));
  let processed = E.run ~max_events:100 eng in
  Alcotest.(check int) "bounded" 100 processed

let test_edge_traffic () =
  let g = Gen.path 3 ~w:2 in
  let eng = E.create g in
  for v = 0 to 2 do
    E.set_handler eng v (fun ~src:_ _ -> ())
  done;
  E.schedule eng ~delay:0.0 (fun () ->
      E.send eng ~src:0 ~dst:1 (Ping 1);
      E.send eng ~src:1 ~dst:0 (Ping 2);
      E.send eng ~src:1 ~dst:2 (Ping 3));
  ignore (E.run eng);
  let traffic = E.edge_traffic eng in
  Alcotest.(check int) "edge 0-1 both directions" 2 traffic.(0);
  Alcotest.(check int) "edge 1-2" 1 traffic.(1)

let test_determinism () =
  (* Same seed, same uniform-delay execution trace. *)
  let trace seed =
    let g = Gen.cycle 6 ~w:7 in
    let rng = Csap_graph.Rng.create seed in
    let eng = E.create ~delay:(Csap_dsim.Delay.Uniform rng) g in
    let log = ref [] in
    for v = 0 to 5 do
      E.set_handler eng v (fun ~src (Ping k) ->
          log := (v, src, k, E.now eng) :: !log;
          if k < 20 then E.send eng ~src:v ~dst:((v + 1) mod 6) (Ping (k + 1)))
    done;
    E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 0));
    ignore (E.run eng);
    !log
  in
  Alcotest.(check bool) "reproducible" true (trace 5 = trace 5);
  Alcotest.(check bool) "seed-sensitive" true (trace 5 <> trace 6)

let test_delay_models_bounds () =
  (* Every model keeps delays in (0, w]. *)
  let rng = Csap_graph.Rng.create 1 in
  let models =
    [
      Csap_dsim.Delay.Exact;
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 2);
      Csap_dsim.Delay.Scaled 0.25;
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Jitter (Csap_graph.Rng.create 3);
    ]
  in
  List.iter
    (fun model ->
      for _ = 1 to 200 do
        let w = 1 + Csap_graph.Rng.int rng 50 in
        let out = [| nan |] in
        Csap_dsim.Delay.sample_into model ~edge_id:0 ~dir:0 ~nth:0 ~w out;
        let d = out.(0) in
        Alcotest.(check bool)
          (Format.asprintf "%a in (0,w]" Csap_dsim.Delay.pp model)
          true
          (d > 0.0 && d <= float_of_int w)
      done)
    models

(* The packed event queue and the historical boxed heap implement the
   same (time, send-order) total order, so a full execution — delivery
   sequence and metrics — must be identical under either. *)
let test_event_queue_equivalence () =
  let trace queue =
    let g =
      Gen.random_connected (Csap_graph.Rng.create 7) 24 ~extra_edges:30
        ~wmax:8
    in
    let eng = E.create ~event_queue:queue g in
    let log = ref [] in
    let seen = Array.make (G.n g) false in
    for v = 0 to G.n g - 1 do
      E.set_handler eng v (fun ~src (Ping k) ->
          log := (v, src, k) :: !log;
          if not seen.(v) then begin
            seen.(v) <- true;
            G.iter_neighbors g v (fun u _ _ ->
                if u <> src then E.send eng ~src:v ~dst:u (Ping (k + 1)))
          end)
    done;
    E.schedule eng ~delay:0.0 (fun () ->
        seen.(0) <- true;
        G.iter_neighbors g 0 (fun u _ _ -> E.send eng ~src:0 ~dst:u (Ping 0)));
    ignore (E.run eng);
    let m = E.metrics eng in
    ( List.rev !log,
      m.Csap_dsim.Metrics.messages,
      m.Csap_dsim.Metrics.weighted_comm,
      m.Csap_dsim.Metrics.completion_time )
  in
  let log_p, msg_p, comm_p, t_p = trace E.Packed in
  let log_b, msg_b, comm_b, t_b = trace E.Boxed in
  Alcotest.(check bool) "same delivery sequence" true (log_p = log_b);
  Alcotest.(check int) "same messages" msg_b msg_p;
  Alcotest.(check int) "same weighted comm" comm_b comm_p;
  Alcotest.(check (float 1e-9)) "same completion time" t_b t_p

(* Regression: [run ~until] used to leave the clock at the last event on
   quiescence, so a timer scheduled between slices fired earlier than in a
   continuous run. *)
let test_until_advances_on_quiescence () =
  let g = Gen.path 2 ~w:1 in
  let eng = E.create g in
  E.set_handler eng 0 (fun ~src:_ _ -> ());
  E.set_handler eng 1 (fun ~src:_ _ -> ());
  ignore (E.run ~until:5.0 eng);
  Alcotest.(check (float 1e-9)) "clock at the slice end" 5.0 (E.now eng);
  let fired_at = ref nan in
  E.schedule eng ~delay:1.0 (fun () -> fired_at := E.now eng);
  ignore (E.run eng);
  Alcotest.(check (float 1e-9)) "timer relative to slice end" 6.0 !fired_at

(* Regression: [run ~until] used to assign the limit to the clock even when
   the limit was in the past, moving simulated time backwards. *)
let test_until_never_backwards () =
  let g = Gen.path 2 ~w:1 in
  let eng = E.create g in
  E.set_handler eng 0 (fun ~src:_ _ -> ());
  E.set_handler eng 1 (fun ~src:_ _ -> ());
  E.schedule eng ~delay:6.0 (fun () -> ());
  ignore (E.run eng);
  Alcotest.(check (float 1e-9)) "clock at 6" 6.0 (E.now eng);
  E.schedule eng ~delay:10.0 (fun () -> ());
  let n = E.run ~until:2.0 eng in
  Alcotest.(check int) "stale limit processes nothing" 0 n;
  Alcotest.(check (float 1e-9)) "clock not moved backwards" 6.0 (E.now eng);
  let n = E.run ~until:16.0 eng in
  Alcotest.(check int) "pending event still delivered" 1 n;
  Alcotest.(check (float 1e-9)) "clock at the limit" 16.0 (E.now eng)

(* Sliced runs must visit the same states as one continuous run. *)
let test_until_slices_compose () =
  let g = Gen.path 5 ~w:3 in
  let relay eng =
    for v = 0 to 4 do
      E.set_handler eng v (fun ~src:_ (Ping k) ->
          if v < 4 then E.send eng ~src:v ~dst:(v + 1) (Ping (k + 1)))
    done;
    E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 0))
  in
  let continuous = E.create g in
  relay continuous;
  ignore (E.run continuous);
  let sliced = E.create g in
  relay sliced;
  let total = ref 0 in
  for i = 1 to 12 do
    total := !total + E.run ~until:(float_of_int i) sliced
  done;
  total := !total + E.run sliced;
  Alcotest.(check int) "same event count"
    (E.metrics continuous).Csap_dsim.Metrics.events !total;
  Alcotest.(check (float 1e-9)) "same completion time"
    (E.metrics continuous).Csap_dsim.Metrics.completion_time
    (E.metrics sliced).Csap_dsim.Metrics.completion_time

(* Regression: [completion_time] is bumped by every event, so a local timer
   firing after the last delivery inflated the paper's time measure; the
   measure must read the last *delivery* instead. *)
let test_local_timer_is_free () =
  let g = Gen.path 2 ~w:5 in
  let eng = E.create g in
  E.set_handler eng 0 (fun ~src:_ _ -> ());
  E.set_handler eng 1 (fun ~src:_ _ -> ());
  E.schedule eng ~delay:0.0 (fun () -> E.send eng ~src:0 ~dst:1 (Ping 0));
  E.schedule eng ~delay:100.0 (fun () -> ());
  ignore (E.run eng);
  let m = E.metrics eng in
  Alcotest.(check (float 1e-9)) "last event at the timer" 100.0
    m.Csap_dsim.Metrics.completion_time;
  Alcotest.(check (float 1e-9)) "last delivery at the message" 5.0
    m.Csap_dsim.Metrics.last_delivery_time;
  Alcotest.(check (float 1e-9)) "paper time ignores the timer" 5.0
    (Csap.Measures.of_metrics m).Csap.Measures.time

(* Regression: NaN passed the [delay < 0] guard and corrupted the event
   queue's strict ordering; non-finite delays must be rejected. *)
let test_invalid_delays_rejected () =
  let g = Gen.path 2 ~w:5 in
  let eng = E.create g in
  E.set_handler eng 0 (fun ~src:_ _ -> ());
  E.set_handler eng 1 (fun ~src:_ _ -> ());
  let rejected d =
    match E.schedule eng ~delay:d (fun () -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "NaN rejected" true (rejected nan);
  Alcotest.(check bool) "inf rejected" true (rejected infinity);
  Alcotest.(check bool) "negative rejected" true (rejected (-1.0));
  Alcotest.(check bool) "zero accepted" false (rejected 0.0);
  (* A broken delay model is caught at the send site. *)
  let bad name v =
    let eng =
      E.create
        ~delay:(Csap_dsim.Delay.oracle ~name (fun ~edge_id:_ ~dir:_ ~nth:_ ~w:_ -> v))
        g
    in
    E.set_handler eng 1 (fun ~src:_ _ -> ());
    match E.send eng ~src:0 ~dst:1 (Ping 0) with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "NaN sample rejected" true (bad "nan" nan);
  Alcotest.(check bool) "inf sample rejected" true (bad "inf" infinity);
  Alcotest.(check bool) "negative sample rejected" true (bad "neg" (-0.5))

let suite =
  [
    Alcotest.test_case "delivery and cost accounting" `Quick
      test_delivery_and_cost;
    Alcotest.test_case "non-edge send rejected" `Quick test_non_edge_rejected;
    Alcotest.test_case "missing handler fails loudly" `Quick
      test_missing_handler;
    Alcotest.test_case "FIFO per directed edge" `Quick test_fifo_order;
    Alcotest.test_case "relay time accumulates" `Quick
      test_relay_time_accumulates;
    Alcotest.test_case "run ~until" `Quick test_run_until;
    Alcotest.test_case "max_events bounds runaways" `Quick test_max_events;
    Alcotest.test_case "edge traffic counters" `Quick test_edge_traffic;
    Alcotest.test_case "deterministic executions" `Quick test_determinism;
    Alcotest.test_case "delay models respect (0,w]" `Quick
      test_delay_models_bounds;
    Alcotest.test_case "packed and boxed event queues agree" `Quick
      test_event_queue_equivalence;
    Alcotest.test_case "run ~until advances on quiescence" `Quick
      test_until_advances_on_quiescence;
    Alcotest.test_case "run ~until never moves the clock back" `Quick
      test_until_never_backwards;
    Alcotest.test_case "sliced runs compose" `Quick test_until_slices_compose;
    Alcotest.test_case "post-completion local timer is free" `Quick
      test_local_timer_is_free;
    Alcotest.test_case "NaN and infinite delays rejected" `Quick
      test_invalid_delays_rejected;
  ]
