(** The flooding algorithm CON_flood (Section 6.1).

    Broadcasts a message from a source: each vertex forwards the first copy
    it receives to all its other neighbours. Communication [O(script-E)]
    (every edge carries at most two copies), time [O(script-D)] (the wave
    follows shortest paths). The first-contact edges form a spanning tree,
    which solves connected components / spanning tree (Section 7), at the
    [O(script-E)] end of the trade-off. *)

type result = {
  tree : Csap_graph.Tree.t;  (** the spanning tree of first contacts *)
  arrival : float array;  (** time the wave reached each vertex *)
  measures : Measures.t;
  transport : Csap_dsim.Net.stats;
      (** shim retransmissions and crash-restart events *)
}

(** A reusable engine for multi-trial flood loops; see {!make_engine}. *)
type engine

(** [make_engine ?delay g] builds the engine [run ~engine] reuses across
    trials on the same [g] — one allocation of the per-vertex and
    per-edge state per (instance) point instead of one per trial. *)
val make_engine : ?delay:Csap_dsim.Delay.t -> Csap_graph.Graph.t -> engine

(** [run ?delay ?faults ?reliable ?domains ?engine g ~source] floods
    from [source] over [Net.make ?reliable ?domains ?delay ?faults g]
    ({!Csap_dsim.Net.make}); requires a connected graph.

    - With [faults] and no shim, messages run over the raw engine: a
      plan that drops a first-contact copy can leave the wave short of
      some vertices, and [run] raises [Invalid_argument] as it does on a
      disconnected graph.
    - With [~reliable:true], under any survivable fault plan (loss < 1,
      finite outages and crashes) the wave covers the graph and the
      first-contact tree is a valid spanning tree.
    - With [domains > 1] the wave runs on the partitioned engine, with a
      result bit-identical to the sequential run's: same tree, arrival
      times and measures. The delay model must be order-independent
      ({!Csap_dsim.Delay.order_independent}).

    When [engine] is given it must have been built over [g] (checked by
    graph identity) and the run must be sequential and shimless
    ([Invalid_argument] otherwise); it is {!Csap_dsim.Engine.reset} —
    installing [delay] and [faults] if provided, clearing any previous
    plan otherwise — and reused instead of creating a fresh engine,
    which multi-seed trial loops exploit to skip per-trial
    reconstruction. *)
val run :
  ?delay:Csap_dsim.Delay.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?reliable:bool ->
  ?domains:int ->
  ?engine:engine ->
  Csap_graph.Graph.t ->
  source:int ->
  result
