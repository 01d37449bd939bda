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

type 'm t = {
  graph : Csap_graph.Graph.t;
  send : src:int -> dst:int -> 'm -> unit;
  set_handler : int -> (src:int -> 'm -> unit) -> unit;
  set_on_restart : int -> (unit -> unit) -> unit;
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
  retransmissions : unit -> int;  (** [0] without the shim *)
}

(** Transport-level bookkeeping of one run: retransmissions performed by
    the {!Reliable} shim (always [0] on a plain transport) and observed
    crash-restart events. *)
type stats = {
  retransmissions : int;
  restarts : int;
}

val no_stats : stats

(** [of_engine eng] wraps an existing engine as a plain (shimless)
    endpoint — for protocols that share one engine with engine-bound
    machinery (e.g. the {!Controller}) or reuse it across trials. *)
val of_engine : 'm Engine.t -> 'm t

(** [make ?reliable ?domains ?delay ?faults g] picks the transport:
    - [domains > 1]: the partitioned engine ({!Pengine}) across that
      many domains. The delay model must be order-independent; the
      reliable shim and fault plans are rejected, and so is [run] with
      [until], [max_events] or [comm_budget] (all [Invalid_argument]).
      Protocol state must be per-vertex: a handler running on [v] may
      send only with [~src:v] and read only [now v].
    - otherwise a sequential {!Engine}, behind the {!Reliable} shim when
      [reliable] (default [false]): exactly-once FIFO application-layer
      delivery under any survivable fault plan, at the retransmission
      overhead. Without the shim a plan that drops messages is visible
      to the protocol.

    [domains] defaults to [1]; [domains < 1] raises [Invalid_argument]. *)
val make :
  ?reliable:bool ->
  ?domains:int ->
  ?delay:Delay.t ->
  ?faults:Fault.plan ->
  Csap_graph.Graph.t ->
  'm t

(** [monitor net] installs a restart counter on every vertex (via
    [set_on_restart]) and returns a closure producing the run's
    transport {!stats}. Call before the protocol installs its own
    restart handlers only if it has none — the counter replaces any
    previously installed handler and vice versa. *)
val monitor : 'm t -> unit -> stats
