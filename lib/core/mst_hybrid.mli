(** Algorithm MST_hybrid (Section 8.2).

    Runs a {e controlled} MST_ghs and the full-information MST_centr in
    parallel on the same network, each with a monotone spend estimate at
    the root:

    - MST_ghs (cost [Theta(script-E + script-V log n)]) runs as a diffusing
      computation from the root through the {!Controller}; the controller's
      permit counter [W_a] is the root's view of its spending, and holding
      back permits suspends it;
    - MST_centr (cost [Theta(n script-V)]) reports its exact spend [W_b]
      and parks between phases.

    The root alternates budgets, always letting the currently-cheaper
    algorithm run (GHS's budget is raised in doubling steps while
    [W_a <= W_b]); whichever finishes first wins. Total communication
    [O(min{script-E + script-V log n, n script-V})] — Corollary 8.2. *)

type winner =
  | Ghs
  | Mst_centr

type result = {
  mst : Csap_graph.Tree.t;
  winner : winner;
  measures : Measures.t;
  ghs_demand : int;  (** final W_a *)
  centr_estimate : int;  (** final W_b *)
  transport : Csap_dsim.Net.stats;
}

(** [run ?delay ?faults ?reliable g ~root] runs the hybrid to completion
    over [Net.make ?reliable ?delay ?faults g], composed as
    {!Con_hybrid.run} is; [~reliable:true] routes both component
    algorithms and the controller's traffic through the
    {!Csap_dsim.Reliable} shim. Raises [Invalid_argument] when [root] is
    outside [0, n). *)
val run :
  ?delay:Csap_dsim.Delay.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?reliable:bool ->
  Csap_graph.Graph.t ->
  root:int ->
  result
