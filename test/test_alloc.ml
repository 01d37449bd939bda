(* The PR's acceptance tests: (1) the packed delivery hot path performs
   (essentially) zero minor-heap allocation per delivered message, and
   (2) the packed SOA queue is bit-identical to the retained boxed
   oracle across graphs, delay models, faults and seeds. The boxed
   queue is used here as the oracle — exactly the use its alert
   protects. *)
[@@@alert "-boxed_oracle"]

module E = Csap_dsim.Engine
module D = Csap_dsim.Delay
module F = Csap_dsim.Fault
module M = Csap_dsim.Metrics
module Trace = Csap_dsim.Trace
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

(* Ping-pong [n] messages over one edge and return the minor-heap words
   allocated by [E.run] with the messages it sent. The handlers are
   allocation-free themselves (int payload, int-ref countdown), so the
   delta is the engine's own per-message cost plus a small per-[run]
   constant ([Gc.quick_stat] snapshots, loop-local refs). *)
let pingpong_words queue n =
  let g = Gen.path 2 ~w:3 in
  let eng = E.create ~event_queue:queue g in
  let remaining = ref 0 in
  E.set_handler eng 0 (fun ~src:_ (_ : int) ->
      if !remaining > 0 then begin
        decr remaining;
        E.send eng ~src:0 ~dst:1 0
      end);
  E.set_handler eng 1 (fun ~src:_ (_ : int) ->
      if !remaining > 0 then begin
        decr remaining;
        E.send eng ~src:1 ~dst:0 0
      end);
  let round k =
    remaining := k;
    E.schedule eng ~delay:0.0 (fun () ->
        decr remaining;
        E.send eng ~src:0 ~dst:1 0);
    let msgs0 = (E.metrics eng).M.messages in
    let before = Gc.minor_words () in
    ignore (E.run eng);
    let words = Gc.minor_words () -. before in
    (words, (E.metrics eng).M.messages - msgs0)
  in
  (* Warm-up round on the same engine: queue growth, first-touch. *)
  ignore (round 64);
  round n

let test_packed_send_path_alloc_free () =
  let n = 50_000 in
  let words, msgs = pingpong_words E.Packed n in
  Alcotest.(check int) "all messages delivered" n msgs;
  (* Zero words per message; the allowance covers the constant per-run
     overhead only (two [Gc.quick_stat] records, a handful of loop
     refs), NOT a per-message budget: 2048 words over 50k messages is
     0.04 words/message, far below one field of one box. *)
  Alcotest.(check bool)
    (Printf.sprintf "packed run allocates O(1), got %.0f words for %d msgs"
       words n)
    true
    (words < 2048.0)

let test_boxed_oracle_allocates () =
  (* Detector sanity: the same workload on the boxed oracle allocates
     per message (event record + heap slot), so a hot-path regression
     cannot hide behind a broken measurement. *)
  let n = 50_000 in
  let words, msgs = pingpong_words E.Boxed n in
  Alcotest.(check int) "all messages delivered" n msgs;
  Alcotest.(check bool)
    (Printf.sprintf "boxed run allocates per message, got %.2f words/msg"
       (words /. float_of_int n))
    true
    (words > 2.0 *. float_of_int n)

(* ---- retention audit ---------------------------------------------------- *)
(* Popped payload and closure slots must be nulled: an engine kept
   alive after its run must not keep the run's closures (and anything
   they capture) live. The probe is a large array reachable
   ONLY through queue-internal references — a timer closure and a
   delivery payload — watched through a [Weak] pointer while the engine
   itself stays reachable. This held for the packed SOA queue
   ([Event_queue.drop_min] nulls its slots) and was a real leak
   in the boxed oracle's [Heap], whose [pop_min] left popped events —
   closures included — in the backing array. *)

let retention_probe queue =
  let g = Gen.path 2 ~w:2 in
  let eng : float array E.t = E.create ~event_queue:queue g in
  E.set_handler eng 0 (fun ~src:_ (_ : float array) -> ());
  E.set_handler eng 1 (fun ~src:_ (_ : float array) -> ());
  let w = Weak.create 1 in
  (* Inner scope so no stack slot of this frame keeps [big] alive. *)
  (let big = Array.make 4096 0.0 in
   Weak.set w 0 (Some big);
   (* The timer closure captures [big]; the delivery carries it as its
      payload. Both end up in queue slots and are popped by [run]. *)
   E.schedule eng ~delay:0.0 (fun () ->
       big.(0) <- 1.0;
       E.send eng ~src:0 ~dst:1 big));
  ignore (E.run eng);
  (eng, w)

let check_collected ~what w =
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) (what ^ " collectable") false (Weak.check w 0)

let test_packed_queue_releases_popped () =
  let eng, w = retention_probe E.Packed in
  check_collected ~what:"packed popped closure+payload" w;
  ignore (Sys.opaque_identity eng)

let test_boxed_queue_releases_popped () =
  let eng, w = retention_probe E.Boxed in
  check_collected ~what:"boxed popped closure+payload" w;
  ignore (Sys.opaque_identity eng)

let test_heap_pop_releases () =
  (* The raw generic heap: popped elements must leave no reference in
     the backing array (and growth must not pin an element as filler). *)
  let module H = Csap_graph.Heap in
  let h = H.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) in
  let w = Weak.create 1 in
  (let big = Array.make 4096 0.0 in
   Weak.set w 0 (Some big);
   for i = 0 to 20 do
     H.add h (i, fun () -> ignore big.(0))
   done);
  for _ = 0 to 20 do
    ignore (H.pop_min h)
  done;
  check_collected ~what:"popped heap elements" w;
  ignore (Sys.opaque_identity h)

(* gamma_w's control path: the unreliable exact spt-synch run on a
   128-vertex graph. [Gc.allocated_bytes] counts major allocation too, so
   the flat per-level round arrays are charged to the run. With the round
   state in tuple-keyed [Hashtbl]s this run allocated 70.0 words/msg (34.7
   with the flat arrays); the budget is two thirds of the former. *)
let test_gamma_control_words_per_msg () =
  let g =
    Gen.random_connected (Csap_graph.Rng.create 7) 128 ~extra_edges:256
      ~wmax:8
  in
  let pulses = Csap_graph.Paths.diameter g + 1 in
  let run () =
    snd
      (Csap.Synchronizer.run_transformed g
         (Csap.Spt_synch.protocol ~source:0)
         ~pulses)
  in
  ignore (run ());
  let before = Gc.allocated_bytes () in
  let o = run () in
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let msgs = o.Csap.Synchronizer.total.Csap.Measures.messages in
  let per_msg = words /. float_of_int msgs in
  let budget = 70.0 *. 2.0 /. 3.0 in
  Alcotest.(check bool)
    (Printf.sprintf "gamma_w run allocates %.1f words/msg over %d msgs \
                     (budget %.1f)" per_msg msgs budget)
    true (per_msg <= budget)

(* One full faulty traced execution; everything observable is returned
   so polymorphic equality compares packed vs boxed runs field for
   field. *)
let execute queue ~gseed ~delay_ix ~fault_ix =
  let rng = Csap_graph.Rng.create (1000 + gseed) in
  let g = Gen.random_connected rng 18 ~extra_edges:24 ~wmax:9 in
  let delay =
    match delay_ix with
    | 0 -> D.Exact
    | 1 -> D.Scaled 0.5
    | 2 -> D.Near_zero
    | 3 -> D.seeded ((gseed * 7) + 1)
    | 4 -> D.Uniform (Csap_graph.Rng.create (gseed + 100))
    | _ -> D.Jitter (Csap_graph.Rng.create (gseed + 200))
  in
  let faults =
    match fault_ix with
    | 0 -> None
    | 1 -> Some (F.seeded ~loss:0.15 ~dup:0.15 (gseed + 3))
    | _ ->
      Some
        (F.seeded ~loss:0.05 ~dup:0.1
           ~crashes:
             [
               { F.vertex = 1; at = 2.0; restart = 9.0 };
               { F.vertex = 4; at = 5.0; restart = 30.0 };
             ]
           (gseed + 5))
  in
  let run () =
    let eng = E.create ~delay ?faults ~event_queue:queue g in
    let seen = Array.make (G.n g) false in
    let log = ref [] in
    for v = 0 to G.n g - 1 do
      E.set_restart_handler eng v (fun () -> log := (-1, v, -1) :: !log);
      E.set_handler eng v (fun ~src k ->
          log := (v, src, k) :: !log;
          if not seen.(v) then begin
            seen.(v) <- true;
            G.iter_neighbors g v (fun u _ _ ->
                if u <> src then E.send eng ~src:v ~dst:u (k + 1))
          end)
    done;
    E.schedule eng ~delay:0.0 (fun () ->
        seen.(0) <- true;
        G.iter_neighbors g 0 (fun u _ _ -> E.send eng ~src:0 ~dst:u 0));
    ignore (E.run ~max_events:200_000 eng);
    (List.rev !log, E.metrics eng, Array.to_list (E.edge_traffic eng))
  in
  let (log, metrics, traffic), traces = Trace.with_collector run in
  (log, metrics, traffic, List.map Trace.to_jsonl traces)

let prop_packed_equals_boxed =
  QCheck.Test.make ~count:60
    ~name:"packed execution = boxed oracle (graphs x delays x faults)"
    QCheck.(
      triple (int_range 0 10_000) (int_range 0 5) (int_range 0 2))
    (fun (gseed, delay_ix, fault_ix) ->
      execute E.Packed ~gseed ~delay_ix ~fault_ix
      = execute E.Boxed ~gseed ~delay_ix ~fault_ix)

let suite =
  [
    Alcotest.test_case "packed send path allocates zero words/message"
      `Quick test_packed_send_path_alloc_free;
    Alcotest.test_case "boxed oracle allocates (detector sanity)" `Quick
      test_boxed_oracle_allocates;
    Alcotest.test_case "packed queue releases popped slots" `Quick
      test_packed_queue_releases_popped;
    Alcotest.test_case "boxed queue releases popped slots" `Quick
      test_boxed_queue_releases_popped;
    Alcotest.test_case "heap pop releases elements" `Quick
      test_heap_pop_releases;
    Alcotest.test_case "gamma_w control path words/msg budget" `Quick
      test_gamma_control_words_per_msg;
    QCheck_alcotest.to_alcotest prop_packed_equals_boxed;
  ]
