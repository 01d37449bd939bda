(** Algorithm SPT_synch (Section 9.1).

    The synchronous weighted SPT protocol is a distance wave: the source
    announces 0 at pulse 0; a vertex that improves its distance estimate
    announces the new value to all neighbours. On the weighted synchronous
    network a value sent at pulse [p] over [e] arrives at pulse [p + w(e)]
    carrying exactly the distance of the arrival pulse, so every vertex
    learns its true distance at pulse [dist(s, v)], sends once, and the
    protocol finishes in [script-D] pulses with [O(script-E)]
    communication.

    Combining it with synchronizer gamma_w through the Lemma 4.5
    transformation gives the asynchronous algorithm of Corollary 9.1:
    [O(script-E + script-D k n log n)] communication and
    [O(script-D log_k n log n)] time. *)

type state = {
  dist : int;  (** [max_int] until reached *)
  parent : int;  (** [-1] at the source / until reached *)
}

(** The synchronous protocol (runnable under {!Csap_dsim.Sync_runner} or
    any synchronizer). Messages carry the sender's distance. *)
val protocol : source:int -> (state, int) Csap_dsim.Sync_protocol.t

(** Run on the weighted synchronous network (the reference). *)
val run_synchronous :
  Csap_graph.Graph.t -> source:int -> state array * int
(** returns final states and the weighted communication *)

type result = {
  tree : Csap_graph.Tree.t;
  measures : Measures.t;  (** whole execution, synchronizer included *)
  proto_comm : int;  (** the protocol's own share, [O(script-E)] *)
  overhead_comm : int;  (** acks + synchronizer control *)
  transformed_pulses : int;
  transport : Csap_dsim.Net.stats;
      (** shim retransmissions and crash-restart events *)
}

(** [run ?delay ?faults ?reliable ?k g ~source] — the full asynchronous
    pipeline: normalize, wrap with gamma_w, run, extract the SPT. The
    number of synchronous pulses simulated is [script-D + 1] (the wave is
    complete by then). [faults] injects a fault plan into the underlying
    engine (the normalized graph keeps [g]'s topology and edge ids, so a
    plan built for [g] applies unchanged); correctness under loss
    requires [~reliable:true], which routes everything through the
    {!Csap_dsim.Reliable} shim. *)
val run :
  ?delay:Csap_dsim.Delay.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?reliable:bool ->
  ?k:int ->
  Csap_graph.Graph.t ->
  source:int ->
  result

(** Budgeted variant for the hybrid: [None] when the communication budget
    ran out before every vertex was reached. *)
val try_run :
  ?delay:Csap_dsim.Delay.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?reliable:bool ->
  ?comm_budget:int ->
  ?k:int ->
  Csap_graph.Graph.t ->
  source:int ->
  result option
