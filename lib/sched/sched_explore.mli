(** Adversarial-schedule exploration.

    The paper's complexity measures quantify over {e all} executions: the
    adversary picks any delay in [(0, w(e)]] per message. A protocol's
    correctness must therefore be schedule-invariant, and its worst-case
    time/communication is a maximum over schedules. [explore] runs
    protocol targets under a battery of schedules, each a
    {!Csap_dsim.Delay.t} — seeded pseudo-random ones, structured
    oblivious adversaries (see {!Delay.slow_edge},
    {!Delay.race_crossing}) and {e adaptive} adversaries that observe the
    execution as it unfolds ({!Csap_dsim.Delay.Adaptive}) — checks each run's
    output against a sequential oracle (Kruskal/Dijkstra/the synchronous
    reference executor), and reports the worst time and communication
    observed.

    The same sweep extends to faulty networks: given fault plans
    ({!Csap_dsim.Fault.plan}: lost and duplicated messages, link
    outages, vertex crashes), every (schedule, plan) pair runs behind the
    {!Csap_dsim.Reliable} shim. The oracle checks stay the same — the
    shim is what makes them hold — and each summary also reports the
    retransmission overhead factor: weighted communication under faults
    over the clean unwrapped run's.

    Runs are sharded over a {!Csap_pool.t}; each run gets a fresh
    delay model (and plan) built by its schedule's [make], so the sweep is
    deterministic regardless of how tasks land on workers. When a run
    violates its invariant the failing execution is re-run under
    {!Trace.with_collector} and its traces dumped as JSONL — the artifact
    CI uploads, replayable with {!Trace.recorded}. *)

(** A named way to build a delay model ([Delay.t schedule]) or a fault
    plan ([Fault.plan schedule]). [make] is called once per run so
    stateful values (adaptive built-ins, [Recorded]-style oracles,
    RNG-backed models) never leak state between runs. *)
type 'a schedule = {
  label : string;
  make : unit -> 'a;
}

(** [seeded_schedules k] is [k] per-message-seeded schedules (see
    {!Delay.seeded}) with distinct seeds. *)
val seeded_schedules : int -> Csap_dsim.Delay.t schedule list

(** [adversarial_schedules g] is the built-in adversary battery for [g]:
    the heaviest edge ({!Csap_graph.Graph.heaviest_edge}) slowed to its
    full weight while everything else races ahead ({!Delay.slow_edge}),
    direction-asymmetric delays that maximise message crossings
    ({!Delay.race_crossing}), and the near-instantaneous schedule
    ({!Delay.Near_zero}). *)
val adversarial_schedules :
  Csap_graph.Graph.t -> Csap_dsim.Delay.t schedule list

(** The adaptive roster: the built-in observing adversaries
    ({!Csap_dsim.Delay.greedy_commax},
    {!Csap_dsim.Delay.time_stretcher}), each constructed fresh per
    run. Runs under these emit a replayable decision trace
    ({!Csap_dsim.Trace.Decision}); pair with [explore]'s [check_replay]
    to certify every adaptive worst case as an oblivious schedule. *)
val adaptive_schedules : unit -> Csap_dsim.Delay.t schedule list

(** [fault_schedules g k] is [k] seeded plans cycling through four
    shapes: pure loss, loss + duplication, loss + a burst outage on the
    heaviest edge, and loss + a crash-restart of one vertex (never the
    conventional source 0). Outage and crash windows are placed within
    the weighted diameter of [g] so they overlap any execution. *)
val fault_schedules :
  Csap_graph.Graph.t -> int -> Csap_dsim.Fault.plan schedule list

(** A protocol under test: [execute g delay plan] runs it on [g]
    under the delay model (oblivious or adaptive) and, when given one, the
    fault plan; checks the schedule-invariant output against a
    sequential oracle; and returns the run's measures — or a description
    of the violated invariant. *)
type target = {
  name : string;
  execute :
    Csap_graph.Graph.t ->
    Csap_dsim.Delay.t ->
    Csap_dsim.Fault.plan option ->
    (Csap.Measures.t, string) result;
}

(** [target_for name] wraps the {!Csap.Protocol} registry entry [name] as
    a sweep target: the run goes through {!Csap.Protocol.execute} with
    the schedule's delay model, and the invariant is the entry's own oracle
    check. Given a plan, the run is behind the reliable shim; without
    one, it is not. [root] and [strip] are forwarded into the
    {!Csap.Protocol.Run.cfg} and named in the target's name. Raises
    [Invalid_argument] on an unknown protocol. *)
val target_for : ?root:int -> ?strip:int -> string -> target

(** The standard sweep roster — one registry target per trade-off family
    (flood, GHS, both SPT constructions, synchronizer alpha), cheap
    enough for a full (schedule x target) sweep. Rooted protocols start
    at vertex 0. *)
val registry_targets : unit -> target list

(** The standard fault roster: every registry protocol that supports
    both raw fault plans and the reliable shim and is cheap enough to
    sweep (flood, DFS, MST_centr, GHS, SPT_synch, global-sum), named
    [rel-<protocol>]. Rooted protocols start at vertex 0. *)
val registry_fault_targets : unit -> target list

(** One (target, schedule[, plan]) run. *)
type run_result = {
  target : string;
  schedule : string;
  fault : string option;  (** the plan's label, in a fault sweep *)
  ok : bool;
  violation : string option;  (** why the invariant failed, when [not ok] *)
  measures : Csap.Measures.t;  (** zero when the run failed *)
}

(** Retransmission overhead over a fault sweep's passing runs. *)
type overhead = {
  clean_comm : int;  (** the unwrapped fault-free run's weighted comm *)
  worst_overhead : float;  (** max of comm / [clean_comm] *)
  mean_overhead : float;  (** mean of comm / [clean_comm] *)
}

(** Per-target aggregate over all runs. *)
type summary = {
  target_name : string;
  runs : run_result array;  (** schedule-major, plan-minor order *)
  worst_time : float;  (** max completion time over passing runs *)
  worst_comm : int;  (** max weighted communication over passing runs *)
  failures : int;
  overhead : overhead option;  (** [Some] exactly in a fault sweep *)
}

(** [explore ?pool ?trace_dir ?check_replay ?faults g ~targets
    ~schedules] runs every target under every schedule — and, with
    [faults], under every (schedule, plan) pair — sharded over [pool]
    (default {!Csap_pool.default}), and returns one summary per target,
    in target order.

    With [faults], each target's overhead denominator is its own run
    under {!Delay.Exact} with no plan (hence no shim); if that baseline
    violates its invariant, [explore] raises [Failure].

    With [check_replay] (default [false]), each passing run is
    re-executed under a trace collector and then {e replayed} — re-run
    under {!Csap_dsim.Trace.recorded} of its own trace as an oblivious
    oracle, with the same plan — demanding event-for-event equality
    modulo the {!Csap_dsim.Trace.Decision} records only the recorded run
    emits; divergence marks the run failed. This is the certificate that
    an adaptive worst case is reproducible as an oblivious schedule.

    With [trace_dir], each failing run is re-executed under a trace
    collector and its traces written to
    [trace_dir/<target>--<schedule>[--<plan>]--<i>.jsonl]; the directory
    and any missing parents are created. *)
val explore :
  ?pool:Csap_pool.t ->
  ?trace_dir:string ->
  ?check_replay:bool ->
  ?faults:Csap_dsim.Fault.plan schedule list ->
  Csap_graph.Graph.t ->
  targets:target list ->
  schedules:Csap_dsim.Delay.t schedule list ->
  summary list
