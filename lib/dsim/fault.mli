(** Fault plans: message loss, duplication, burst outages, crash-restart.

    The paper's model assumes reliable asynchronous links — every message
    sent on edge [e] arrives, after a delay in [(0, w(e)]]. A fault plan
    relaxes exactly the {e whether}, leaving the {e when} to the engine's
    {!Delay.t} model: at each send the plan assigns the message a
    {!disposition} — delivered, dropped, or delivered twice — as a pure
    function of the message's identity (directed edge, per-edge ordinal)
    and the send time, so faulty executions are as deterministic and
    replayable as clean ones ({!seeded} draws its Bernoulli coins from
    the same splitmix64 identity hash as {!Delay.seeded}). A plan also
    carries crash-restart events: while a vertex is down the engine drops
    its incoming deliveries and outgoing sends, deliveries pending at the
    crash are lost, and on restart the engine invokes the vertex's
    restart handler (see {!Engine.set_restart_handler} — the
    reliable-delivery shim hooks it to re-arm retransmission timers) and
    counts the restart ({!Engine.restarts}).

    Attach a plan with [Engine.create ?faults]; it stays with that
    engine.
    A run under {!none} is bit-identical — same metrics, same trace — to
    a run with no plan attached. *)

(** Fate of one message, decided at its send. *)
type disposition =
  | Pass  (** delivered normally *)
  | Drop  (** lost in flight: the send is paid for, nothing arrives *)
  | Duplicate of float
      (** delivered, plus a second copy whose delay is the carried
          fraction (in [(0, 1]]) of the edge weight; the extra copy
          costs no communication (the network, not the protocol,
          duplicated it) *)

(** A burst outage: messages sent on [edge] (all edges when [None])
    during [[from_time, until_time)] are dropped. *)
type outage = {
  edge : int option;
  from_time : float;
  until_time : float;
}

(** A crash-restart event: [vertex] goes down at time [at] and comes
    back at [restart]. Requires [0 <= at < restart], both finite. *)
type crash = {
  vertex : int;
  at : float;
  restart : float;
}

type plan = {
  name : string;
  disposition :
    edge_id:int -> dir:int -> nth:int -> now:float -> disposition;
      (** fate of the [nth] message (0-based) on directed edge
          [(edge_id, dir)] sent at time [now]. Must be pure — replay
          calls it again in the same order with the same arguments. *)
  crashes : crash list;
}

(** The zero-fault plan: every disposition is [Pass], no crashes. An
    engine running under it is bit-identical to one with no plan. *)
val none : plan

(** [make ~name disposition] wraps a custom disposition function;
    [?crashes] are validated as for {!seeded}. *)
val make :
  ?crashes:crash list ->
  name:string ->
  (edge_id:int -> dir:int -> nth:int -> now:float -> disposition) ->
  plan

(** [seeded ?loss ?dup ?outages ?crashes seed] is the reproducible
    random plan: each message is independently dropped with probability
    [loss] (in [[0, 1)]), else duplicated with probability [dup], with
    all coins drawn from a splitmix64 hash of
    [(seed, directed edge, nth)] — per message {e identity}, never per
    sampling order, so plans are stable under sharding and replay.
    [outages] adds deterministic burst-loss windows checked before the
    coins. Raises [Invalid_argument] on out-of-range probabilities or
    malformed windows/crashes. *)
val seeded :
  ?loss:float ->
  ?dup:float ->
  ?outages:outage list ->
  ?crashes:crash list ->
  int ->
  plan

val pp : Format.formatter -> plan -> unit
