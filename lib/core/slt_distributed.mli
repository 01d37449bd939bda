(** Distributed construction of shallow-light trees (Theorem 2.7).

    Stages, as in the paper's proof:

    + build the MST with MST_centr ([O(n script-V)] communication) — the
      full-information invariant leaves every vertex knowing the tree;
    + build the SPT with SPT_centr — likewise, every vertex knows the tree
      and the distances;
    + {e stretch the MST into a line}: a token walks the Euler tour of the
      MST carrying the breakpoint scan of the SLT algorithm (each vertex
      evaluates the [T_S]-distance test locally from its full-information
      copy), returns the breakpoints to the root, and the root broadcasts
      the resulting subgraph [G'] over the tree;
    + compute the final shortest-path tree inside [G'] with SPT_centr.

    Total: [O(script-V n^2)] communication and [O(script-D n^2)] time
    shapes, dominated by the two full-information SPT constructions. *)

type result = {
  tree : Csap_graph.Tree.t;  (** the shallow-light tree *)
  q : float;
  measures : Measures.t;  (** all four stages summed *)
  mst_measures : Measures.t;
  spt_measures : Measures.t;
  walk_measures : Measures.t;
  final_measures : Measures.t;
  transport : Csap_dsim.Net.stats;  (** all four stages summed *)
}

(** [run ?spec ?q g ~root] builds an SLT distributedly.
    The result satisfies the same Lemma 2.4 / 2.5 bounds as {!Slt.build}
    (and selects the same subgraph [G']). Every stage builds its network
    from the same [spec]. Raises [Invalid_argument] when [root] is
    outside [0, n). *)
val run :
  ?spec:Csap_dsim.Net.spec ->
  ?q:float ->
  Csap_graph.Graph.t ->
  root:int ->
  result
