(** Algorithm MST_fast (Section 8.3).

    MST_ghs scans edges serially and in full weight, so a single heavy
    non-tree edge can cost [Theta(script-E)] time. MST_fast removes both
    bottlenecks with the paper's two ideas:

    + {b guess doubling}: each fragment root keeps a guess [g] (initially
      1) for the weight of its minimum outgoing edge; a search round only
      probes edges of weight [<= g], and if the search fails the root
      doubles [g] and repeats — heavy edges are simply never touched until
      the MST forces them;
    + {b parallel scanning}: within a round, a vertex probes all its
      eligible edges concurrently instead of serially.

    The fragment structure runs in globally synchronised Boruvka phases
    (the "simple algorithm" of Section 8.1): every phase, each fragment
    selects its minimum outgoing edge (with the doubling search), then all
    fragments merge along the selected edges; a global barrier over a
    shallow-light coordination tree separates the select and merge steps,
    implementing the synchronisation the paper says the phases require.
    There are [<= log2 n] phases and [O(log script-V)] doubling rounds per
    phase, giving the paper's
    [O(script-E log n log script-V)] communication and
    [O(Diam(MST) log script-V log n)]-shaped time. *)

type result = {
  mst : Csap_graph.Tree.t;
  measures : Measures.t;
  phases : int;  (** Boruvka phases executed, [<= log2 n] *)
  scan_rounds : int;  (** total doubling rounds across fragments *)
  transport : Csap_dsim.Net.stats;
}

(** [run ?spec g] computes the MST over [Net.make ?spec g]. *)
val run :
  ?spec:Csap_dsim.Net.spec ->
  Csap_graph.Graph.t ->
  result
