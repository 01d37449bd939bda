(** Partitioned discrete-event engine: the sequential {!Engine} semantics
    executed across K OCaml domains.

    The graph is split into K blocks ({!Csap_graph.Partition}); each
    domain owns one block's vertices, their handlers and a private event
    queue. Synchronisation is conservative: windows of simulated time
    whose width is the {e lookahead} — the minimum static delay lower
    bound over cut edges ({!Delay.lower_bound}) — run without
    communication, and cross-partition sends are exchanged through
    single-producer/single-consumer mailboxes drained at window barriers.
    When no positive bound exists (pure oracles), windows degenerate to
    single instants processed in lockstep sub-rounds bounded in {e key
    space}: each partition may process an event only while its key is
    below every peer's published minimum pending key at that instant.

    The engine is {b bit-identical} to {!Engine}: the sequential tie-break
    order (time, push sequence) is reconstructed from structural event
    keys — setup index, parent key plus birth rank, and dense global
    ranks assigned by an identical merge-sort of every partition's batch
    at each window barrier — so a protocol run under K domains produces
    exactly the metrics, final state and delivery order of the
    single-domain run.

    Restrictions compared to {!Engine}: the delay model must be
    order-independent ({!Delay.order_independent} — [Uniform]/[Jitter]
    advance shared RNG state in global sampling order and are rejected),
    and there is no fault-plan or trace support. Handlers receive a
    {!ctx} naming the executing partition instead of the engine itself;
    protocol state must be partitioned so each vertex's data is written
    only by its owning domain. Protocols reach this engine through
    [Net.make ~domains] ({!Net.make}). *)

type 'msg t
(** A partitioned engine carrying ['msg]-typed payloads. *)

type 'msg ctx
(** Execution context of one partition, passed to every handler; all
    sends and reads of the clock go through it. *)

val create :
  ?delay:Delay.t ->
  ?partition:Csap_graph.Partition.t ->
  domains:int ->
  Csap_graph.Graph.t ->
  'msg t
(** [create ?delay ?partition ~domains g] readies an engine over [g]
    split into [domains] blocks ([>= 1]). [partition] defaults to
    {!Csap_graph.Partition.striped}; when given it must be a partition of
    [g] into exactly [domains] blocks. Raises [Invalid_argument] if the
    delay model is not order-independent. *)

val set_handler :
  'msg t -> int -> ('msg ctx -> src:int -> 'msg -> unit) -> unit
(** [set_handler t v f] installs [f] as vertex [v]'s message handler.
    Setup-time only. *)

val schedule :
  'msg t -> vertex:int -> delay:float -> ('msg ctx -> unit) -> unit
(** [schedule t ~vertex ~delay f] enqueues a setup-time event at absolute
    time [delay] on [vertex]'s partition (the bootstrap, mirroring
    {!Engine.schedule}). Setup events sort below all runtime events at
    equal times, in installation order — the sequential push order. *)

val send : 'msg ctx -> src:int -> dst:int -> 'msg -> unit
(** [send ctx ~src ~dst m] sends [m] along the edge [(src, dst)] with the
    engine's delay model and per-directed-edge FIFO clamp, identical to
    {!Engine.send}. [src] must belong to the executing partition (its
    send counters are partition-owned). *)

val schedule_ctx :
  'msg ctx -> vertex:int -> delay:float -> ('msg ctx -> unit) -> unit
(** [schedule_ctx ctx ~vertex ~delay f] schedules [f] on [vertex]'s
    partition at [now ctx +. delay] from inside a handler. *)

val now : 'msg ctx -> float
(** Simulated time of the event being processed. *)

val ctx_of : 'msg t -> int -> 'msg ctx
(** [ctx_of t v] is the context of [v]'s owning partition: inside a
    handler running on [v], the executing context. *)

val run : 'msg t -> int
(** [run t] spawns [domains - 1] additional domains, executes every
    pending event to quiescence and returns the total number of events
    processed (equal to the sequential engine's count). If a handler
    raises, all domains unwind and the exception is re-raised (for the
    lowest-numbered failing partition). *)

val reset : ?delay:Delay.t -> 'msg t -> unit
(** [reset ?delay t] clears handlers, queues, mailboxes, FIFO clamps,
    send counters and metrics — same contract as {!Engine.reset}; the
    partition is kept. A new [delay] must be order-independent and
    recomputes the lookahead. *)

val metrics : 'msg t -> Metrics.t
(** Aggregated metrics, valid after {!run}: message and weighted-comm
    totals are summed across partitions, completion and last-delivery
    times are maxima — identical to the sequential run's metrics. *)

val graph : 'msg t -> Csap_graph.Graph.t
val partition : 'msg t -> Csap_graph.Partition.t
val domains : 'msg t -> int

val lookahead : 'msg t -> float
(** Current conservative window width: [infinity] when no cut edge
    exists, [0] when some cut edge has no static delay lower bound
    (lockstep mode). *)
