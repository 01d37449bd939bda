(* Bench FX: the fault-injection sweep.

   The clean sweep (SX) quantifies over delay schedules; this figure adds
   the fault adversary: seeded per-message loss and duplication, burst
   outages on the heaviest edge, and crash-restart of a vertex, all
   behind the reliable-delivery shim. The oracle checks are the same as
   the clean sweep's — the shim is what makes them hold on a faulty
   network — and the reported number is the retransmission overhead
   factor: weighted communication under faults over the clean unwrapped
   run's. Every passing run is additionally replayed from its own trace
   (event-for-event equality); the CI fault-sweep job runs this figure
   and uploads the JSONL traces of any failing run. *)

module Gen = Csap_graph.Generators
module S = Csap_sched.Sched_explore

let fault_plans = 8

(* The reliable roster comes straight from the protocol registry: every
   fault-capable protocol behind the shim. *)
let targets = S.registry_fault_targets ()

(* One job per family: every reliable target under 3 adversarial delay
   schedules x [fault_plans] seeded fault plans, replay-checked. *)
let family_job name build =
  {
    Report.label = name;
    run =
      (fun () ->
        let g = build () in
        let summaries =
          S.explore
            ~pool:(Csap_pool.create ~domains:1 ())
            ~trace_dir:"fault-traces" ~check_replay:true
            ~faults:(S.fault_schedules g fault_plans)
            g ~targets ~schedules:(S.adversarial_schedules g)
        in
        List.map
          (fun (s : S.summary) ->
            let o = Option.get s.S.overhead in
            [
              Report.Str name;
              Report.Str s.S.target_name;
              Report.Int (Array.length s.S.runs);
              Report.Int s.S.failures;
              Report.Int o.S.clean_comm;
              Report.Float o.S.worst_overhead;
              Report.Float o.S.mean_overhead;
            ])
          summaries);
  }

let fx () =
  let jobs =
    [
      family_job "grid" (fun () -> Gen.grid 4 4 ~w:4);
      family_job "random" (fun () ->
          Gen.random_connected (Csap_graph.Rng.create 11) 14 ~extra_edges:16
            ~wmax:8);
      family_job "chorded" (fun () -> Gen.chorded_cycle 10 ~chord_w:16);
    ]
  in
  {
    Report.id = "FX";
    title = "fault-injection sweep (reliable shim, retransmission overhead)";
    jobs;
    render =
      (fun results ->
        Format.printf
          "3 adversarial delay schedules x %d seeded fault plans (loss, \
           loss+dup, heavy-edge outage, crash-restart) per protocol; \
           oracle-checked and replayed from trace on every run@."
          fault_plans;
        Report.table
          ~columns:
            [
              "family";
              "target";
              "K";
              "fail";
              "clean comm";
              "worst overhead";
              "mean overhead";
            ]
          (List.concat (Array.to_list results));
        Format.printf
          "shape check: fail = 0 everywhere (the shim restores the clean \
           oracle under faults); overhead factor >= 1 — the price of \
           reliability the bounds inherit.@.");
  }
