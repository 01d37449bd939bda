(** Algorithm SPT_recur (Section 9.2, Figure 9).

    The paper reduces weighted SPT to BFS on the unit-subdivided network
    (an edge of weight [w] becomes a path of [w] unit edges) and applies
    the strip method of [Awe89]: the [script-D] distance layers are
    processed in {e strips} of [s] layers; synchronisation is paid once per
    strip instead of once per layer, at the price of letting relaxation
    inside a strip run unsynchronised (bounded corrections).

    This implementation keeps the subdivision implicit — a message
    crossing [e] costs and takes [w(e)], exactly like its [w(e)] unit
    hops — and instantiates one recursion level of [Awe89]:

    - vertices announce {e offers} [dist(u) + w] over incident edges, but
      only during the strip whose distance range the offer falls in
      (heavy edges sleep until the wavefront's strip arrives);
    - within a strip, joins and corrections propagate asynchronously
      (Bellman-Ford, bounded by the strip depth);
    - strips are separated by a broadcast over the partial tree, and
      strip-end is detected with genuine Dijkstra-Scholten termination
      detection [DS80] (the procedure the paper itself builds on in
      Sections 5 and 9.2): every offer and tree forward is acknowledged,
      engagements close bottom-up, and the closing acknowledgements
      aggregate the count of newly joined vertices — so the source learns
      completion and progress from the same cascade, fully in-protocol.

    Small [s] means many global synchronisation rounds; large [s] means
    more correction traffic within strips — the Figure 9 trade-off, swept
    by bench F9. *)

type result = {
  tree : Csap_graph.Tree.t;
  measures : Measures.t;
  strips : int;  (** strips processed *)
  offer_comm : int;  (** exploration + correction traffic *)
  sync_comm : int;  (** strip-boundary synchronisation traffic *)
  transport : Csap_dsim.Net.stats;
}

(** [run ?spec g ~source ~strip] computes the SPT from [source] over
    [Net.make ?spec g]; [strip] is the strip depth [s >= 1]. Raises
    [Invalid_argument] when [source] is outside [0, n). *)
val run :
  ?spec:Csap_dsim.Net.spec ->
  Csap_graph.Graph.t ->
  source:int ->
  strip:int ->
  result

(** Budgeted variant for the hybrid: [None] when the communication budget
    ran out first. *)
val try_run :
  ?spec:Csap_dsim.Net.spec ->
  ?comm_budget:int ->
  Csap_graph.Graph.t ->
  source:int ->
  strip:int ->
  result option

(** [default_strip g] - the balanced choice [~ sqrt(script-D * d)],
    clamped to [>= 1]. *)
val default_strip : Csap_graph.Graph.t -> int
