(** Algorithm SPT_hybrid (Section 9.3).

    Combines SPT_synch ([O(script-E + script-D k n log n)] communication)
    and SPT_recur ([O(script-E^(1+eps))]) so the result is as cheap as the
    cheaper of the two, in the manner of the hybrids of Sections 7-8. Our
    two SPT constructions have no single centre of activity to suspend, so
    the combination is realised with budgeted restarts (the classical
    dovetailing argument behind such minimum-combinations): run one
    algorithm under a communication budget [B], on failure run the other
    under [B], double [B] and repeat. The total spend is at most a constant
    factor above [min] of the two standalone costs. *)

type winner =
  | Synch
  | Recur

type result = {
  tree : Csap_graph.Tree.t;
  winner : winner;
  total_comm : int;  (** across all budget epochs *)
  winning_measures : Measures.t;  (** the successful run's own measures *)
  epochs : int;
  transport : Csap_dsim.Net.stats;  (** from the winning epoch's run *)
}

(** [run ?spec ?k ?strip g ~source]; every epoch of both component
    algorithms runs over [spec]; [k] is gamma_w's parameter, [strip]
    SPT_recur's strip depth (defaults as in the component algorithms).
    Raises [Invalid_argument] when [source] is outside [0, n). *)
val run :
  ?spec:Csap_dsim.Net.spec ->
  ?k:int ->
  ?strip:int ->
  Csap_graph.Graph.t ->
  source:int ->
  result
