(** Clock synchronization (Section 3).

    The task: generate at each node a sequence of pulses such that pulse [p]
    at a node is generated causally after all its neighbours generated pulse
    [p-1]. The quality measure is the {e pulse delay} [ER90]: the maximal
    time between two successive pulses at a node. The relevant graph
    parameters are [W] (max edge weight) and [d] (max weighted distance
    between neighbours, [d <= W]).

    Three synchronizers, as in the paper:

    - {b alpha*}: exchange pulse messages with every neighbour directly.
      Pulse delay [Theta(W)] — a single heavy edge stalls both endpoints.
    - {b beta*}: convergecast + broadcast on one global spanning tree with a
      leader. Pulse delay [Theta(script-D)] (tree height both ways).
    - {b gamma*}: a tree edge-cover (Definition 3.1) built from the [AP91]
      partition with [k = log n]; synchronizer beta runs inside every tree,
      then trees wait for their neighbouring trees (alpha among trees).
      Pulse delay [O(d log^2 n)] — within [log^2 n] of the [Omega(d)] lower
      bound, and crucially independent of [W]. *)

type result = {
  pulses : int;  (** pulses each node generated (0 .. pulses) *)
  pulse_times : float array array;  (** [pulse_times.(v).(p)] *)
  max_pulse_delay : float;
      (** max over nodes and pulses [p >= 1] of [t(v,p) - t(v,p-1)] *)
  avg_pulse_delay : float;
  comm_per_pulse : float;  (** weighted communication amortized per pulse *)
  measures : Measures.t;
  transport : Csap_dsim.Net.stats;
}

(** [run_alpha ?spec g ~pulses] runs synchronizer alpha* over
    [Net.make ?spec g] ({!Csap_dsim.Net.make}). *)
val run_alpha :
  ?spec:Csap_dsim.Net.spec ->
  Csap_graph.Graph.t ->
  pulses:int ->
  result

(** [run_beta ?spec g ~pulses] runs synchronizer beta* over
    {!Slt.centre_tree}, a shallow-light tree rooted at a centre
    vertex. *)
val run_beta :
  ?spec:Csap_dsim.Net.spec ->
  Csap_graph.Graph.t ->
  pulses:int ->
  result

(** [run_gamma ?spec ?neighbor_phase g ~pulses] runs synchronizer
    gamma* over the tree edge-cover {!Csap_cover.Tree_cover.build}[ g].

    [neighbor_phase] (default [true]) controls the paper's second phase
    (alpha among neighbouring trees). Because the tree edge-cover already
    contains, for every edge, a tree spanning both endpoints, the causal
    property holds even without it — the phase is the paper's belt-and-
    braces margin. Setting it to [false] is the ablation measured by bench
    CS: it trades the extra inter-tree traffic against pulse delay. *)
val run_gamma :
  ?spec:Csap_dsim.Net.spec ->
  ?neighbor_phase:bool ->
  Csap_graph.Graph.t ->
  pulses:int ->
  result

(** [check_causality g r] verifies the defining property on a result: for
    every node [v], pulse [p >= 1] of [v] happens no earlier than pulse
    [p-1] of each neighbour (under the simulator's global clock, causal
    order implies time order for the triggering chain; we check the time
    order each synchronizer actually guarantees). *)
val check_causality : Csap_graph.Graph.t -> result -> bool
