(** Deterministic discrete-event simulator for asynchronous message passing.

    A protocol installs one handler per vertex; [send] enqueues a message on
    an incident edge with a delay drawn from the engine's {!Delay.t} model
    — fixed before the run, or an adaptive adversary observing it
    ({!Delay.Adaptive}; see the adaptive models section below).
    Links are FIFO per direction (delivery order matches send order), local
    computation is instantaneous, and ties are broken by send order, so every
    execution is reproducible.

    Costs are accounted per the paper: each send adds [w(e)] communication.
    Per-edge traffic counters support congestion assertions (e.g. the
    controller's per-edge [O(log^2 c)] overhead). *)

type 'msg t

(** Which priority queue backs the event loop. [Packed] (the default) is
    the structure-of-arrays heap of {!Event_queue} — pushing or popping
    a delivery allocates zero heap words; [Boxed] is the historical
    generic heap over boxed event records, retained {e only} as the
    test oracle for the QCheck bit-identity suite (and the send-path
    microbenchmark pair). Both orders are the same total
    (time, send-order) order, so executions are identical either way.
    Uses outside [test/] and [bench/] trip the [boxed_oracle] alert. *)
type event_queue =
  | Packed
  | Boxed
      [@alert
        boxed_oracle
          "The Boxed event queue is a test oracle: it allocates per event \
           and exists only to cross-check the packed SOA queue. Use the \
           default Packed queue."]

(** [create ?delay ?faults ?event_queue g] builds an idle
    engine over the network [g]; the default delay model is
    {!Delay.Exact}. [?faults] attaches a {!Fault.plan}: each send is
    assigned a disposition (pass / drop / duplicate) by the plan, and the
    plan's crash events are scheduled (see {2:faults Faults} below).
    Without a plan — or under {!Fault.none} — behaviour is bit-identical
    to the historical reliable network. The delay model, the plan and
    the trace (see the tracing section below) are fixed for the
    engine's lifetime: a run under other ones builds another engine.

    A {!Delay.Adaptive} model is consulted at every send with the
    engine's {!Delay.Obs} view (see the adaptive models section below);
    every other model costs nothing beyond its sample. *)
val create :
  ?delay:Delay.t ->
  ?faults:Fault.plan ->
  ?event_queue:event_queue ->
  Csap_graph.Graph.t ->
  'msg t

val graph : 'msg t -> Csap_graph.Graph.t

(** Current simulated time. *)
val now : 'msg t -> float

(** [set_handler t v f] installs [v]'s message handler. Messages delivered to
    a vertex without a handler raise [Failure]. *)
val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit

(** [send t ~src ~dst msg] transmits over the edge [{src, dst}]; raises
    [Invalid_argument] naming the offending [(src, dst)] pair when that
    edge does not exist, or when the delay model produces a delay that is
    not finite and non-negative (NaN would corrupt the event queue's
    strict ordering; see {!Delay.sample_into}). *)
val send : 'msg t -> src:int -> dst:int -> 'msg -> unit

(** [schedule t ~delay f] runs the local event [f] after [delay] time;
    used to bootstrap protocols and for local timeouts. Local events cost no
    communication. Raises [Invalid_argument] unless [delay] is finite and
    non-negative (in particular, NaN is rejected). *)
val schedule : 'msg t -> delay:float -> (unit -> unit) -> unit

(** [run t] processes events until quiescence. [~max_events] guards against
    runaway protocols; [~comm_budget] stops once the weighted communication
    reaches the budget (used by the budgeted-restart hybrids). Returns the
    number of events processed.

    [~until] runs the slice of the execution up to a time limit: events at
    times [<= until] are processed, later ones stay queued, and when the
    slice completes — the queue drained or the next event lies beyond the
    limit — the clock advances to [Float.max (now t) until]. Sliced runs
    therefore compose: [run ~until:t1 t; run ~until:t2 t] visits the same
    states as [run ~until:t2 t], and timers scheduled between slices
    (relative to [now t = t1]) land where a continuous run puts them.
    The clock never moves backwards: a stale [until < now t] processes
    nothing and leaves the clock where it was. Runs cut short by
    [~max_events] or [~comm_budget] leave the clock at the last processed
    event. *)
val run :
  ?until:float -> ?max_events:int -> ?comm_budget:int -> 'msg t -> int

(** True when no events are pending. *)
val quiescent : 'msg t -> bool

val metrics : 'msg t -> Metrics.t

(** [edge_traffic t] maps edge id to the number of messages that crossed it
    (in either direction) so far. The returned array is a snapshot. *)
val edge_traffic : 'msg t -> int array

(** {2:faults Faults}

    With a {!Fault.plan} attached the engine becomes an unreliable
    network under the same deterministic discipline: each send's fate is
    the plan's pure function of the message identity and send time.
    Dropped messages are paid for (communication and traffic) but never
    arrive — no delay is sampled for them, so the delay model sees
    exactly the surviving sends; duplicated messages arrive twice (the
    extra copy costs nothing — the network, not the protocol, duplicated
    it). Crash events take a vertex down at a plan-specified time: its
    pending deliveries are dropped (crash-epoch stamping — nothing scans
    the queue), deliveries and sends while down are dropped, and at the
    restart time the restart is counted ({!restarts}) and the vertex's
    restart handler runs. Every fault shows up
    in an attached trace as a {!Trace.Dropped} or {!Trace.Dup} record,
    and a faulty execution replays exactly by re-running under the
    recorded delays ({!Trace.recorded}) and the same plan. *)

(** [set_restart_handler t v f] installs [f] to run when [v] restarts
    after a crash — the hook the reliable-delivery shim uses to re-arm
    its retransmission timers. *)
val set_restart_handler : 'msg t -> int -> (unit -> unit) -> unit

(** [is_down t v] is true while [v] is crashed. *)
val is_down : 'msg t -> int -> bool

(** Crash-restart events fired so far: one per plan crash whose restart
    time the run has reached. *)
val restarts : 'msg t -> int

(** {2 Tracing}

    With a trace attached the engine appends a {!Trace.event} for every
    send and every dispatched event (deliveries and locals), enough to
    export the schedule and replay it via {!Trace.recorded}. [create]
    attaches a trace when an ambient {!Trace.with_collector} scope is
    active on the current domain, and only then. Tracing is off ([None])
    otherwise and costs nothing on the hot path. *)

(** The trace [create] attached, if any. *)
val trace : 'msg t -> Trace.t option

(** {2:adversaries Adaptive models}

    Under a {!Delay.Adaptive} model the engine consults its
    [next_delay] at every paid send that survives the fault plan,
    handing it a read-only {!Delay.Obs} view (clock, per-edge in-flight
    counts) that shares the engine's own state — observing allocates
    nothing. Each decision is recorded in an attached trace as a
    {!Trace.Decision} event immediately before its [Send] twin, so
    {!Trace.recorded} replays the adaptive schedule obliviously and
    reproduces the run event for event. A message's fate (pass, drop,
    duplicate) is the fault plan's alone. Oblivious models take the
    historical zero-allocation send path unchanged. *)
