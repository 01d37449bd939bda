(** Asynchronous distance-wave SPT (the [O(script-E)]-communication end
    of the Section 9 trade-off, run natively asynchronous).

    Distributed Bellman-Ford: the source announces; a vertex that
    improves its distance estimate adopts the sender as parent and
    re-announces [d + w] to every other neighbour. At quiescence
    [dist.(v)] is the true weighted distance (every relaxation the
    sequential algorithm would do eventually happens), under {e any}
    delay model.

    Under the normalised schedule ([Exact]) a candidate of value [d]
    arrives at time exactly [d], so the first arrival at each vertex
    carries its true distance: one improvement per vertex,
    [O(script-E)] messages and [script-D] time — matching CON_flood's
    costs while also solving weighted SPT. Under adversarial schedules
    communication can blow up (the classical Bellman-Ford exponential
    worst case), which is the gap SPT_synch's synchronizer pipeline
    closes; measuring that gap is this protocol's role in the suite. *)

type result = {
  tree : Csap_graph.Tree.t;  (** parents = last improving announcement *)
  dist : int array;  (** true weighted distances at quiescence *)
  measures : Measures.t;
}

(** [run ?delay ?domains g ~source] runs over
    [Net.make ?domains ?delay g] ({!Csap_dsim.Net.make}); requires a
    connected graph. With [domains > 1] it runs on the partitioned
    engine, bit-identical to the sequential run under any
    order-independent delay model. *)
val run :
  ?delay:Csap_dsim.Delay.t ->
  ?domains:int ->
  Csap_graph.Graph.t ->
  source:int ->
  result
