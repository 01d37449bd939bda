(** Partitioned discrete-event engine: the sequential {!Engine} semantics
    executed across K OCaml domains.

    The graph is split into K blocks ({!Csap_graph.Partition}); each
    domain owns one block's vertices, their handlers and a private event
    queue. Synchronisation is conservative: a window of simulated time
    runs without communication and ends at the least (earliest pending
    event + {e lookahead}) over the partitions; cross-partition sends are
    exchanged through single-producer/single-consumer mailboxes drained
    at window barriers. Under a static model the lookahead is the minimum
    {!Delay.lower_bound} over the cut edges. An oracle has no static
    bound, so its lookahead is {e pre-sampled}: a partition's lookahead
    is the least delay the oracle assigns to the next message on any cut
    slot the partition sends on, kept in a tournament tree updated at
    each cut send; FIFO clamping keeps later messages on a slot from
    arriving earlier. A window that cannot advance the clock (a next
    delay of 0 on a cut slot, or a lookahead below the clock's float
    resolution) raises [Invalid_argument] from {!run}.

    The engine is {b bit-identical} to {!Engine}: the sequential tie-break
    order (time, push sequence) is reconstructed from structural event
    keys — setup index, parent key plus birth rank, and dense global
    ranks assigned by an identical merge-sort of every partition's batch
    at each window barrier — so a protocol run under K domains produces
    exactly the metrics, final state and delivery order of the
    single-domain run.

    Restrictions compared to {!Engine}: the delay model must be
    order-independent ({!Delay.order_independent} — [Uniform]/[Jitter]
    advance shared RNG state in global sampling order and an [Adaptive]
    model reads the run's global state, so all three are rejected),
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

val metrics : 'msg t -> Metrics.t
(** Aggregated metrics, valid after {!run}: message and weighted-comm
    totals are summed across partitions, completion and last-delivery
    times are maxima — identical to the sequential run's metrics. *)

val graph : 'msg t -> Csap_graph.Graph.t
val partition : 'msg t -> Csap_graph.Partition.t
val domains : 'msg t -> int

val lookahead : 'msg t -> float
(** The conservative window width, read between runs: [infinity] when
    no cut edge exists; under a static model the least
    {!Delay.lower_bound} over the cut edges; under an oracle the least
    pre-sampled delay of any cut slot's next message. *)

val windows : 'msg t -> int
(** Number of windows (barrier-separated rounds) in the last {!run}. *)
