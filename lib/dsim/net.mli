(** A network endpoint abstraction over {!Engine}, {!Reliable} and
    {!Pengine}.

    The three transports have different wire and handler types
    ([{!Engine.t}] over raw messages, over {!Reliable.packet}s, or
    {!Pengine.t} with per-partition contexts), which rules out a shared
    engine value. A [Net.t] closes over whichever transport it was built
    with and exposes the protocol-facing surface (send, handlers,
    bootstrap, clock, run, metrics), so one protocol body runs unchanged
    over a clean engine, a faulty engine, a faulty engine behind the
    reliable shim, or the partitioned engine across several domains. *)

(** Transport-level bookkeeping of one run: retransmissions performed by
    the {!Reliable} shim (always [0] on a plain transport) and the
    crash-restart events the engine fired ({!Engine.restarts}). *)
type stats = {
  retransmissions : int;
  restarts : int;
}

val no_stats : stats

type 'm t = {
  graph : Csap_graph.Graph.t;
  send : src:int -> dst:int -> 'm -> unit;
  set_handler : int -> (src:int -> 'm -> unit) -> unit;
  schedule : int -> (unit -> unit) -> unit;
      (** [schedule v f] runs [f] at time 0 acting for vertex [v] — the
          bootstrap. The partitioned backend runs it on [v]'s domain;
          the sequential ones ignore [v]. *)
  now : int -> float;
      (** [now v] is the simulated time, read by a handler running on
          [v] (the partitioned backend has one clock per domain; the
          sequential ones ignore [v]). *)
  run : ?until:float -> ?max_events:int -> ?comm_budget:int -> unit -> int;
  metrics : unit -> Metrics.t;
  stats : unit -> stats;
      (** the run's transport bookkeeping so far; {!no_stats} on the
          partitioned backend *)
}

(** The transport recipe of a run: the delay model, the fault plan and
    whether the {!Reliable} shim sits in front of the engine. It
    describes the network, not the protocol, so every runner takes one
    [?spec] and hands it unchanged to each {!make} it calls. *)
type spec = {
  delay : Delay.t;
  faults : Fault.plan option;
  reliable : bool;
      (** exactly-once FIFO application-layer delivery under any
          survivable fault plan, at the retransmission overhead; without
          the shim a plan that drops messages is visible to the
          protocol *)
}

(** {!Delay.Exact}, no fault plan and no shim. Other specs are record
    updates of it: [{ Net.default with Net.reliable = true }]. *)
val default : spec

(** [make ?domains ?spec g] picks the transport:
    - [domains > 1]: the partitioned engine ({!Pengine}) across that
      many domains. The delay model must be order-independent; the
      reliable shim and fault plans are rejected, and so is [run] with
      [until], [max_events] or [comm_budget] (all [Invalid_argument]).
      Protocol state must be per-vertex: a handler running on [v] may
      send only with [~src:v] and read only [now v].
    - otherwise a sequential {!Engine} with [spec]'s delay model and
      fault plan, behind the {!Reliable} shim when [spec.reliable].

    [domains] defaults to [1]; [domains < 1] raises [Invalid_argument].
    [spec] defaults to {!default}. *)
val make : ?domains:int -> ?spec:spec -> Csap_graph.Graph.t -> 'm t
