(** Network synchronizers for the weighted case (Section 4).

    A synchronizer lets a weighted {e synchronous} protocol (delay on [e]
    exactly [w(e)]) run on a weighted {e asynchronous} network (delay on [e]
    anywhere in [(0, w(e)]]). Safety is detected with acknowledgements
    (Definition 4.1); the synchronizers differ in how the "all neighbours
    safe" information is disseminated, trading communication against time
    per pulse:

    - {b alpha_w}: exchange SAFE with every neighbour each pulse.
      [C_p = O(script-E)], [T_p = O(W)].
    - {b beta_w}: convergecast/broadcast on one global tree.
      [C_p = O(n)] tree messages ([O(w(T))] weighted), [T_p = O(script-D)].
    - {b gamma_w}: the paper's construction. The network must be normalized
      and the protocol in synch with it (use {!Normalize}). Edges are
      partitioned into weight classes [E_i = {e : w(e) = 2^i}]; an
      [Awe85a]-style cluster partition with parameter [k] is built per
      level, and a level-[i] round (synchronizer gamma on [G_i]) clears the
      messages of super-pulse [p/2^i] once per [2^i] pulses — heavy edges
      are cleaned exponentially less often, which is what beats the naive
      [O(W)] overhead. Amortized overheads (Lemma 4.8):
      [C_p = O(k n log W)], [T_p = O(log_k n log W)].

    The paper states [E_i] as "weights divisible by [2^i]"; with normalized
    weights and in-synch protocols, clearing each edge exactly at its own
    weight class gives the same guarantee (a weight-[2^j] edge's messages
    exist only at multiples of [2^j] and are cleared by level [j]) with
    strictly less control traffic, so this implementation uses the
    partition form. *)

(** Outcome of a synchronized execution, with the synchronizer's own
    traffic separated from the protocol's. *)
type ('s, 'm) outcome = {
  states : 's array;
  deliveries : 'm Csap_dsim.Sync_protocol.delivery list;
      (** protocol messages in consumption order, with arrival pulses —
          comparable to {!Csap_dsim.Sync_runner.run}'s log *)
  pulses : int;
  proto_comm : int;  (** weighted communication of protocol messages *)
  ack_comm : int;  (** weighted communication of acknowledgements *)
  control_comm : int;  (** weighted communication of synchronizer control *)
  total : Measures.t;
  amortized_comm : float;  (** (ack + control) / pulses — the paper's C_p *)
  amortized_time : float;  (** completion time / pulses — the paper's T_p *)
  transport : Csap_dsim.Net.stats;
      (** shim retransmissions and crash-restart events *)
}

(** Every synchronizer below accepts [?faults] (a {!Csap_dsim.Fault.plan}
    injected into the engine) and [?reliable] (default [false]; route all
    traffic — protocol, acks and control alike — through the
    {!Csap_dsim.Reliable} shim). A synchronizer is correct under message
    loss only with [~reliable:true]: its safety detection assumes
    exactly-once links, which the shim restores at the cost of
    transport-level acks and retransmissions (reported in
    [control_comm] / [transport]). *)

(** [run_alpha ?delay g p ~pulses] — synchronizer alpha_w. Works on any
    weighted network and synchronous protocol. *)
val run_alpha :
  ?delay:Csap_dsim.Delay.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?reliable:bool ->
  Csap_graph.Graph.t ->
  ('s, 'm) Csap_dsim.Sync_protocol.t ->
  pulses:int ->
  ('s, 'm) outcome

(** [run_beta ?delay g p ~pulses] — synchronizer beta_w over
    {!Slt.centre_tree}, a shallow-light tree rooted at a centre. *)
val run_beta :
  ?delay:Csap_dsim.Delay.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?reliable:bool ->
  Csap_graph.Graph.t ->
  ('s, 'm) Csap_dsim.Sync_protocol.t ->
  pulses:int ->
  ('s, 'm) outcome

(** [run_gamma_w ?delay ?k g p ~pulses] — synchronizer gamma_w with cluster
    parameter [k >= 2] (default 2). Requires a normalized graph
    ([Invalid_argument] otherwise) and a protocol in synch with it (checked
    at run time on every send).

    [levels] selects the level-set construction: [`Partition] (default,
    each edge cleaned at its own weight class) or [`Divisible] (the
    paper's literal "weights divisible by 2^i" — heavier edges are
    redundantly cleaned at every lower level; same guarantee, strictly
    more control traffic; kept as a measurable ablation). *)
val run_gamma_w :
  ?delay:Csap_dsim.Delay.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?reliable:bool ->
  ?comm_budget:int ->
  ?k:int ->
  ?levels:[ `Partition | `Divisible ] ->
  Csap_graph.Graph.t ->
  ('s, 'm) Csap_dsim.Sync_protocol.t ->
  pulses:int ->
  ('s, 'm) outcome

(** [run_transformed ?delay ?k g p ~pulses] — the full pipeline of Section
    4: normalize [g] and [p] (Lemma 4.5), then run gamma_w. [pulses] counts
    {e original} protocol pulses; returns the outcome over the transformed
    network together with the inner states extracted. *)
val run_transformed :
  ?delay:Csap_dsim.Delay.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?reliable:bool ->
  ?comm_budget:int ->
  ?k:int ->
  Csap_graph.Graph.t ->
  ('s, 'm) Csap_dsim.Sync_protocol.t ->
  pulses:int ->
  's array * (('s, 'm) Normalize.state, 'm Normalize.envelope) outcome

(** {2 The per-level cluster partition (exposed for tests)} *)

module Partition : sig
  type t = {
    cluster_of : int array;  (** dense cluster ids *)
    parent : int array;  (** intracluster BFS tree; [-1] at cluster roots *)
    children : int list array;
    root_of : int array;  (** cluster id -> root vertex *)
    preferred : (int * int) list;
        (** one edge per adjacent cluster pair, as vertex pairs *)
    k : int;
    hop_radius : int;  (** max BFS depth over clusters *)
  }

  (** [build g ~edges ~k] partitions the subgraph [(V, edges)] (edge ids of
      [g]); vertices with no incident edge become singleton clusters.
      Growth rule per [Awe85a]: keep absorbing the next BFS layer while it
      multiplies the cluster size by [>= k], giving hop radius
      [<= log_k n] and at most [(k-1) n] intercluster edges charged per
      cluster. *)
  val build : Csap_graph.Graph.t -> edges:int list -> k:int -> t
end
