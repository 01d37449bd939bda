(** The hybrid connectivity / spanning-tree algorithm CON_hybrid
    (Section 7.2).

    Runs the token DFS (cost [Theta(script-E)]) and the full-information
    MST_centr (cost [Theta(n V)]) in parallel on the same network. The root
    keeps both algorithms' monotone spend estimates [W_a] (DFS) and [W_b]
    (MST_centr) and at any moment permits only the algorithm whose estimate
    is currently smaller, suspending the other at the root. Estimates are
    2-approximate and refresh on doubling, so the total cost exceeds the
    cheaper algorithm's by at most a constant factor:
    [O(min{script-E, n V})] communication — matching the paper's lower
    bound (Section 7.1). *)

type winner =
  | Dfs  (** the DFS token finished first *)
  | Mst_centr  (** the full-information MST finished first *)

type result = {
  spanning_tree : Csap_graph.Tree.t;  (** from the winning algorithm *)
  winner : winner;
  measures : Measures.t;
  dfs_estimate : int;  (** final W_a *)
  mst_estimate : int;  (** final W_b *)
  transport : Csap_dsim.Net.stats;
}

(** [run ?spec g ~root] runs the hybrid to completion; both component
    algorithms share one network built from [spec]. Raises
    [Invalid_argument] when [root] is outside [0, n). *)
val run :
  ?spec:Csap_dsim.Net.spec ->
  Csap_graph.Graph.t ->
  root:int ->
  result
