module C = Csap.Controller
module Net = Csap_dsim.Net
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

(* A controlled flooding broadcast: the canonical correct diffusing
   computation (c_pi = its flooding cost). *)
type fmsg = Wave

let run_controlled_flood ?spec g ~source ~threshold =
  let n = G.n g in
  let net = Net.make ?spec g in
  let aborted_flag = ref false in
  let ctl =
    C.create ~net ~inject:Fun.id ~initiator:source ~threshold
      ~on_abort:(fun () -> aborted_flag := true)
      ()
  in
  let reached = Array.make n false in
  let forward v ~except =
    G.iter_neighbors g v (fun u _ _ ->
        if u <> except then C.send ctl ~src:v ~dst:u Wave)
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src wire ->
        match C.handle ctl ~me:v ~src wire with
        | None -> ()
        | Some Wave ->
          if not reached.(v) then begin
            reached.(v) <- true;
            forward v ~except:src
          end)
  done;
  net.Net.schedule source (fun () ->
      reached.(source) <- true;
      forward source ~except:(-1));
  ignore (net.Net.run ());
  (reached, ctl, net.Net.metrics (), !aborted_flag)

(* A runaway protocol: two nodes ping-pong forever (diverged execution). *)
type rmsg = Ping

let run_runaway g ~threshold =
  let net = Net.make g in
  let aborted_flag = ref false in
  let ctl =
    C.create ~net ~inject:Fun.id ~initiator:0 ~threshold
      ~on_abort:(fun () -> aborted_flag := true)
      ()
  in
  for v = 0 to G.n g - 1 do
    net.Net.set_handler v (fun ~src wire ->
        match C.handle ctl ~me:v ~src wire with
        | None -> ()
        | Some Ping ->
          (* Echo forever. *)
          C.send ctl ~src:v ~dst:src Ping)
  done;
  net.Net.schedule 0 (fun () -> C.send ctl ~src:0 ~dst:1 Ping);
  let events = net.Net.run ~max_events:200_000 () in
  (ctl, events, !aborted_flag, net.Net.metrics ())

let flood_cost g = 2 * G.total_weight g

let test_correct_execution_unaffected () =
  let g = Gen.grid 4 4 ~w:3 in
  let threshold = 2 * flood_cost g in
  let reached, ctl, _, aborted = run_controlled_flood g ~source:0 ~threshold in
  Alcotest.(check bool) "no abort" false aborted;
  Alcotest.(check bool) "all reached" true (Array.for_all Fun.id reached);
  Alcotest.(check bool) "consumed within threshold" true
    (C.consumed ctl <= threshold);
  Alcotest.(check bool) "spent = protocol cost" true
    (C.spent ctl <= flood_cost g);
  Alcotest.(check int) "nothing pending" 0 (C.pending_sends ctl)

let test_overhead_envelope () =
  (* Corollary 5.1: c_phi = O(c_pi log^2 c_pi). *)
  let g = Gen.grid 5 5 ~w:4 in
  let c_pi = flood_cost g in
  let threshold = 2 * c_pi in
  let _, _, metrics, aborted = run_controlled_flood g ~source:0 ~threshold in
  Alcotest.(check bool) "no abort" false aborted;
  let log2 x = log (float_of_int x) /. log 2.0 in
  let bound = 4.0 *. float_of_int c_pi *. log2 c_pi *. log2 c_pi in
  Alcotest.(check bool)
    (Printf.sprintf "total %d <= 4 c log^2 c = %.0f"
       metrics.Csap_dsim.Metrics.weighted_comm bound)
    true
    (float_of_int metrics.Csap_dsim.Metrics.weighted_comm <= bound)

let test_runaway_contained () =
  let g = Gen.path 2 ~w:5 in
  let threshold = 100 in
  let ctl, events, aborted, metrics = run_runaway g ~threshold in
  Alcotest.(check bool) "aborted" true aborted;
  Alcotest.(check bool) "terminated before event cap" true (events < 200_000);
  Alcotest.(check bool) "spend bounded by threshold" true
    (C.spent ctl <= threshold);
  Alcotest.(check bool) "total traffic bounded" true
    (metrics.Csap_dsim.Metrics.weighted_comm <= 20 * threshold)

let test_runaway_unbounded_without_controller () =
  (* The same protocol without the controller runs forever (cut by the
     event cap) — the controller is doing real work. *)
  let g = Gen.path 2 ~w:5 in
  let net = Net.make g in
  net.Net.set_handler 0 (fun ~src:_ Ping -> net.Net.send ~src:0 ~dst:1 Ping);
  net.Net.set_handler 1 (fun ~src:_ Ping -> net.Net.send ~src:1 ~dst:0 Ping);
  net.Net.schedule 0 (fun () -> net.Net.send ~src:0 ~dst:1 Ping);
  let events = net.Net.run ~max_events:5_000 () in
  Alcotest.(check int) "hits the cap" 5_000 events

let test_doubling_discipline_per_edge () =
  (* Requests per execution-tree edge stay logarithmic in c. *)
  let g = Gen.path 12 ~w:2 in
  let threshold = 4 * flood_cost g in
  let reached, _, _, _ = run_controlled_flood g ~source:0 ~threshold in
  Alcotest.(check bool) "all reached" true (Array.for_all Fun.id reached)

let test_tight_threshold_aborts () =
  (* A threshold below c_pi must abort a correct but expensive run. *)
  let g = Gen.complete 6 ~w:10 in
  let threshold = flood_cost g / 8 in
  let _, ctl, _, aborted = run_controlled_flood g ~source:0 ~threshold in
  Alcotest.(check bool) "aborted" true aborted;
  Alcotest.(check bool) "spend within threshold" true
    (C.spent ctl <= threshold)

let test_delay_models () =
  let g = Gen.lollipop 4 4 ~w:3 in
  let threshold = 2 * flood_cost g in
  List.iter
    (fun delay ->
      let reached, _, _, aborted =
        run_controlled_flood ~spec:{ Net.default with Net.delay } g ~source:0
          ~threshold
      in
      Alcotest.(check bool) "no abort" false aborted;
      Alcotest.(check bool) "all reached" true (Array.for_all Fun.id reached))
    [
      Csap_dsim.Delay.Near_zero;
      Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 61);
    ]

(* The multiple-initiator extension: one diffusing computation started at
   several sources (a multi-source broadcast), each source metering its own
   execution tree against its own threshold. *)
type cmsg = Spark

let run_multi_source_flood g ~t0 ~t1 =
  let n = G.n g in
  let net = Net.make g in
  let aborts = ref 0 in
  let ctl =
    C.create_multi ~net ~inject:Fun.id
      ~initiators:[ (0, t0); (n - 1, t1) ]
      ~suspend:false
      ~on_abort:(fun () -> incr aborts)
      ()
  in
  let seen = Array.make n false in
  let forward v ~except =
    G.iter_neighbors g v (fun u _ _ ->
        if u <> except then C.send ctl ~src:v ~dst:u Spark)
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src wire ->
        match C.handle ctl ~me:v ~src wire with
        | None -> ()
        | Some Spark ->
          if not seen.(v) then begin
            seen.(v) <- true;
            forward v ~except:src
          end)
  done;
  net.Net.schedule 0 (fun () ->
      seen.(0) <- true;
      forward 0 ~except:(-1);
      seen.(n - 1) <- true;
      forward (n - 1) ~except:(-1));
  ignore (net.Net.run ~max_events:300_000 ());
  (seen, ctl, !aborts)

let test_multi_initiator_completes () =
  let g = Gen.grid 4 4 ~w:3 in
  let budget = 2 * flood_cost g in
  let seen, ctl, aborts = run_multi_source_flood g ~t0:budget ~t1:budget in
  Alcotest.(check int) "no aborts" 0 aborts;
  Alcotest.(check bool) "wave everywhere" true (Array.for_all Fun.id seen);
  Alcotest.(check bool) "consumed within combined threshold" true
    (C.consumed ctl <= 2 * budget);
  Alcotest.(check bool) "spent within protocol cost" true
    (C.spent ctl <= flood_cost g)

let test_multi_initiator_per_root_budgets () =
  (* One root is starved: its tree stalls at its threshold while the other
     root keeps minting; total spend respects the sum of thresholds. *)
  let g = Gen.grid 4 4 ~w:3 in
  let big = 2 * flood_cost g in
  let seen, ctl, aborts = run_multi_source_flood g ~t0:9 ~t1:big in
  Alcotest.(check bool) "the starved root aborted" true (aborts >= 1);
  Alcotest.(check bool) "spend within combined thresholds" true
    (C.spent ctl <= 9 + big);
  (* The richly funded source keeps spreading regardless. *)
  Alcotest.(check bool) "the funded source's corner is covered" true
    seen.(G.n g - 2)

let prop_controller_transparent =
  QCheck.Test.make ~count:30
    ~name:"controller is transparent for correct executions"
    (Gen_qcheck.graph_and_vertex ~max_n:14 ())
    (fun (g, source) ->
      let threshold = 2 * flood_cost g in
      let reached, ctl, _, aborted =
        run_controlled_flood g ~source ~threshold
      in
      (not aborted)
      && Array.for_all Fun.id reached
      && C.spent ctl <= flood_cost g
      && C.consumed ctl <= threshold)

let suite =
  [
    Alcotest.test_case "correct executions unaffected" `Quick
      test_correct_execution_unaffected;
    Alcotest.test_case "O(c log^2 c) envelope" `Quick test_overhead_envelope;
    Alcotest.test_case "runaway contained" `Quick test_runaway_contained;
    Alcotest.test_case "runaway unbounded without controller" `Quick
      test_runaway_unbounded_without_controller;
    Alcotest.test_case "doubling discipline" `Quick
      test_doubling_discipline_per_edge;
    Alcotest.test_case "tight threshold aborts" `Quick
      test_tight_threshold_aborts;
    Alcotest.test_case "delay models" `Quick test_delay_models;
    Alcotest.test_case "multi-initiator: multi-source broadcast" `Quick
      test_multi_initiator_completes;
    Alcotest.test_case "multi-initiator: per-root budgets" `Quick
      test_multi_initiator_per_root_budgets;
    QCheck_alcotest.to_alcotest prop_controller_transparent;
  ]
