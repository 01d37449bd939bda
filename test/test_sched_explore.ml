module S = Csap_sched.Sched_explore
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree

let schedules g =
  S.seeded_schedules 8 @ S.adversarial_schedules g @ S.adaptive_schedules ()

(* The registry's clean-sweep roster: flood, GHS, SPT_synch, SPT_recur,
   sync-alpha — all built from Csap.Protocol entries. *)
let targets _g = S.registry_targets ()

let check_all_ok g =
  let summaries = S.explore g ~targets:(targets g) ~schedules:(schedules g) in
  List.iter
    (fun (s : S.summary) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: no invariant violations" s.S.target_name)
        0 s.S.failures;
      Alcotest.(check int)
        (Printf.sprintf "%s: one run per schedule" s.S.target_name)
        (List.length (schedules g))
        (Array.length s.S.runs);
      Alcotest.(check bool)
        (Printf.sprintf "%s: worst comm positive" s.S.target_name)
        true (s.S.worst_comm > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: worst time positive" s.S.target_name)
        true (s.S.worst_time > 0.0))
    summaries;
  Alcotest.(check int) "one summary per target"
    (List.length (targets g))
    (List.length summaries)

(* Three graph families: mesh, random sparse, heavy-chorded cycle. *)
let test_grid () = check_all_ok (Gen.grid 3 3 ~w:4)

let test_random () =
  let rng = Csap_graph.Rng.create 11 in
  check_all_ok (Gen.random_connected rng 10 ~extra_edges:8 ~wmax:6)

let test_chorded () = check_all_ok (Gen.chorded_cycle 8 ~chord_w:8)

let test_schedule_batteries () =
  let g = Gen.grid 3 3 ~w:4 in
  Alcotest.(check int) "seeded count" 8
    (List.length (S.seeded_schedules 8));
  let advs = S.adversarial_schedules g in
  Alcotest.(check int) "three built-in adversaries" 3 (List.length advs);
  let labels = List.map (fun (s : _ S.schedule) -> s.S.label) advs in
  Alcotest.(check bool) "slow-edge, race, near-zero" true
    (List.exists (fun l -> l = "race-crossing") labels
    && List.exists (fun l -> l = "near-zero") labels
    && List.exists
         (fun l -> String.length l > 9 && String.sub l 0 9 = "slow-edge")
         labels)

(* A target whose "invariant" is genuinely schedule-dependent — the flood
   tree must equal the zero-jitter one — is detected, and the failing
   schedules are dumped as replayable JSONL traces. *)
let test_schedule_dependence_detected () =
  let g = Gen.grid 3 3 ~w:4 in
  let reference =
    (Csap.Flood.run ~delay:Csap_dsim.Delay.Exact g ~source:0).Csap.Flood.tree
  in
  let bogus =
    {
      S.name = "flood-tree-fixed";
      execute =
        (fun g delay _plan ->
          let r = Csap.Flood.run ~delay g ~source:0 in
          if Tree.edges r.Csap.Flood.tree = Tree.edges reference then
            Ok r.Csap.Flood.measures
          else Error "first-contact tree depends on the schedule");
    }
  in
  (* A nested directory: [explore] creates the missing parent too. *)
  let parent =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "csap-sched-test-%d" (Unix.getpid ()))
  in
  let dir = Filename.concat parent "nested" in
  let summaries =
    S.explore ~trace_dir:dir g ~targets:[ bogus ]
      ~schedules:(S.seeded_schedules 8 @ S.adversarial_schedules g)
  in
  let s = List.hd summaries in
  Alcotest.(check bool) "schedule dependence detected" true (s.S.failures > 0);
  let dumped = Sys.readdir dir in
  Alcotest.(check int) "one trace per failing schedule" s.S.failures
    (Array.length dumped);
  (* Every dumped trace parses and replays the failure deterministically. *)
  Array.iter
    (fun f ->
      let tr = Csap_dsim.Trace.load_jsonl (Filename.concat dir f) in
      Alcotest.(check bool)
        (Printf.sprintf "%s is non-empty" f)
        true
        (Csap_dsim.Trace.length tr > 0);
      let r =
        Csap.Flood.run ~delay:(Csap_dsim.Trace.recorded tr) g ~source:0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s replays to a differing tree" f)
        true
        (Tree.edges r.Csap.Flood.tree <> Tree.edges reference))
    dumped;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) dumped;
  Sys.rmdir dir;
  Sys.rmdir parent

(* The adaptive roster passes the replay audit: every adaptive worst case
   re-executes bit-identically as an oblivious schedule built from its
   own decision trace. *)
let test_adaptive_replay_certified () =
  let g = Gen.grid 3 3 ~w:4 in
  let summaries =
    S.explore ~check_replay:true g ~targets:(targets g)
      ~schedules:(S.adaptive_schedules ())
  in
  List.iter
    (fun (s : S.summary) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: adaptive runs replay cleanly" s.S.target_name)
        0 s.S.failures)
    summaries

let test_deterministic () =
  (* The sweep is deterministic regardless of pool scheduling: two explores
     agree run for run. *)
  let g = Gen.chorded_cycle 8 ~chord_w:8 in
  let go () = S.explore g ~targets:(targets g) ~schedules:(schedules g) in
  let a = go () and b = go () in
  Alcotest.(check bool) "two sweeps identical" true (a = b)

(* ---- fault sweep ------------------------------------------------------- *)

(* The registry's reliable roster: every fault-capable protocol behind the
   shim — strictly more than the original hand-wired three. *)
let fault_targets = S.registry_fault_targets ()

let test_fault_sweep_passes () =
  let g = Gen.grid 3 3 ~w:4 in
  let delays = S.adversarial_schedules g in
  let faults = S.fault_schedules g 4 in
  Alcotest.(check int) "requested plan count" 4 (List.length faults);
  let summaries =
    S.explore ~check_replay:true ~faults g ~targets:fault_targets
      ~schedules:delays
  in
  Alcotest.(check int) "one summary per target" (List.length fault_targets)
    (List.length summaries);
  List.iter
    (fun (s : S.summary) ->
      let o = Option.get s.S.overhead in
      Alcotest.(check int)
        (Printf.sprintf "%s: zero failures" s.S.target_name)
        0 s.S.failures;
      Alcotest.(check int)
        (Printf.sprintf "%s: one run per (delay, fault) pair" s.S.target_name)
        (List.length delays * List.length faults)
        (Array.length s.S.runs);
      Alcotest.(check bool)
        (Printf.sprintf "%s: clean comm positive" s.S.target_name)
        true (o.S.clean_comm > 0);
      (* Retransmissions and duplicate suppression only add traffic. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: overhead factor >= 1" s.S.target_name)
        true
        (o.S.mean_overhead >= 1.0
        && o.S.worst_overhead >= o.S.mean_overhead);
      Array.iter
        (fun (r : S.run_result) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s/%s passes" r.S.target r.S.schedule
               (Option.get r.S.fault))
            true r.S.ok)
        s.S.runs)
    summaries

(* Adaptive adversaries under fault plans, behind the shim, pass the
   replay audit: the decision trace plus the same plan reproduce the run
   event for event. *)
let test_fault_adaptive_replay_certified () =
  let g = Gen.grid 3 3 ~w:4 in
  let summaries =
    S.explore ~check_replay:true ~faults:(S.fault_schedules g 4) g
      ~targets:fault_targets ~schedules:(S.adaptive_schedules ())
  in
  Alcotest.(check int) "one summary per target" (List.length fault_targets)
    (List.length summaries);
  List.iter
    (fun (s : S.summary) ->
      let o = Option.get s.S.overhead in
      Alcotest.(check int)
        (Printf.sprintf "%s: adaptive fault runs replay cleanly"
           s.S.target_name)
        0 s.S.failures;
      Alcotest.(check bool)
        (Printf.sprintf "%s: overhead factor >= 1" s.S.target_name)
        true (o.S.mean_overhead >= 1.0))
    summaries

let test_fault_sweep_deterministic () =
  let g = Gen.chorded_cycle 8 ~chord_w:8 in
  let go () =
    S.explore ~faults:(S.fault_schedules g 4) g ~targets:fault_targets
      ~schedules:(S.adversarial_schedules g)
  in
  Alcotest.(check bool) "two fault sweeps identical" true (go () = go ())

(* A target that deadlocks under loss — GHS without the shim — is caught,
   and its failing runs are dumped as replayable JSONL traces. *)
let test_fault_failure_traced () =
  let g = Gen.grid 3 3 ~w:4 in
  let fragile =
    {
      S.name = "mst-unshimmed";
      execute =
        (fun g delay faults ->
          let r = Csap.Mst_ghs.run ~delay ?faults g in
          if Csap_graph.Mst.is_mst g r.Csap.Mst_ghs.mst then
            Ok r.Csap.Mst_ghs.measures
          else Error "not an MST");
    }
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "csap-fault-test-%d" (Unix.getpid ()))
  in
  let delays = [ List.hd (S.adversarial_schedules g) ] in
  let summaries =
    S.explore ~trace_dir:dir ~faults:(S.fault_schedules g 2) g
      ~targets:[ fragile ] ~schedules:delays
  in
  let s = List.hd summaries in
  Alcotest.(check bool) "unshimmed GHS fails under faults" true
    (s.S.failures > 0);
  let dumped = Sys.readdir dir in
  Alcotest.(check bool) "failing traces dumped" true
    (Array.length dumped > 0);
  Array.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%s parses" f)
        true
        (Csap_dsim.Trace.length
           (Csap_dsim.Trace.load_jsonl (Filename.concat dir f))
        >= 0))
    dumped;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) dumped;
  Sys.rmdir dir

(* The overhead baseline is checked too: a target whose plain run breaks
   its invariant stops the fault sweep instead of yielding a ratio. *)
let test_fault_baseline_checked () =
  let g = Gen.grid 3 3 ~w:4 in
  let broken = { S.name = "broken"; execute = (fun _ _ _ -> Error "broken") } in
  Alcotest.(check bool) "broken baseline raises" true
    (match
       S.explore ~faults:(S.fault_schedules g 1) g ~targets:[ broken ]
         ~schedules:(S.adversarial_schedules g)
     with
    | _ -> false
    | exception Failure _ -> true)

let suite =
  [
    Alcotest.test_case "grid family passes all schedules" `Quick test_grid;
    Alcotest.test_case "random family passes all schedules" `Quick
      test_random;
    Alcotest.test_case "chorded-cycle family passes all schedules" `Quick
      test_chorded;
    Alcotest.test_case "schedule batteries" `Quick test_schedule_batteries;
    Alcotest.test_case "schedule dependence detected and traced" `Quick
      test_schedule_dependence_detected;
    Alcotest.test_case "adaptive roster replays as oblivious schedules"
      `Quick test_adaptive_replay_certified;
    Alcotest.test_case "sweep is deterministic" `Quick test_deterministic;
    Alcotest.test_case "fault sweep passes with replay checks" `Quick
      test_fault_sweep_passes;
    Alcotest.test_case "adaptive fault runs replay as oblivious schedules"
      `Quick test_fault_adaptive_replay_certified;
    Alcotest.test_case "fault sweep is deterministic" `Quick
      test_fault_sweep_deterministic;
    Alcotest.test_case "fault failure detected and traced" `Quick
      test_fault_failure_traced;
    Alcotest.test_case "fault baseline invariant checked" `Quick
      test_fault_baseline_checked;
  ]
