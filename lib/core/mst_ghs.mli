(** Algorithm MST_ghs (Section 8.1) — the Gallager-Humblet-Spira
    distributed minimum spanning tree, analysed under the weighted
    measures.

    Fragments merge level by level; within a fragment, the minimum-weight
    outgoing edge is found by a broadcast (Initiate), per-vertex serial
    scanning of basic edges in increasing weight order (Test/Accept/
    Reject), and a convergecast (Report); fragments combine via
    Connect/ChangeRoot. Distinct weights are obtained with the canonical
    order {!Csap_graph.Graph.compare_edges}.

    Weighted complexity (Lemma 8.1): each non-tree edge is scanned at most
    twice and each tree edge [O(log n)] times, giving
    [O(script-E + script-V log n)] communication; the time complexity is of
    the same order (the algorithm pipelines poorly — the motivation for
    MST_fast). *)

(** Protocol messages (opaque; exposed for embedding). *)
type msg

(** Engine-agnostic protocol core: transmissions go through the injected
    [send], so MST_hybrid can meter them through the {!Controller}. *)
type t

(** [create g ~send ~on_done] allocates the protocol over [g]. [on_done]
    fires when the two core endpoints detect completion. *)
val create :
  Csap_graph.Graph.t ->
  send:(src:int -> dst:int -> msg -> unit) ->
  on_done:(unit -> unit) ->
  t

(** Deliver one message. *)
val handle : t -> me:int -> src:int -> msg -> unit

(** Spontaneous wake-up of a vertex (no-op if already awake). Waking a
    single initiator suffices: Connect and Test messages wake the rest,
    making the execution a diffusing computation. *)
val wake : t -> int -> unit

val finished : t -> bool

(** The MST (Branch edges); valid once [finished]. *)
val mst : t -> Csap_graph.Tree.t

val max_level : t -> int

(** {2 Standalone} *)

type result = {
  mst : Csap_graph.Tree.t;
  measures : Measures.t;
  max_level : int;  (** highest fragment level reached, [<= log2 n] *)
  transport : Csap_dsim.Net.stats;
      (** shim retransmissions and crash-restart events *)
}

(** [run ?spec g] computes the MST over [Net.make ?spec g]
    ({!Csap_dsim.Net.make}); all
    vertices wake at time 0 (the paper's flooding wake-up, whose
    [O(script-E)] cost is already dominated by the scanning term).

    - With a fault plan and no shim, messages run over the raw engine: GHS
      is not loss-tolerant, so a plan that drops messages typically
      deadlocks the run ([failwith] on non-termination).
    - Behind the shim ([spec.reliable]), under any survivable fault plan
      (loss < 1, finite outages and crashes) the computed tree is the
      MST, at the retransmission overhead. The state machine needs no
      crash-specific logic: its state is stable storage under the crash
      model and the shim restores exactly-once FIFO links.

    GHS wakes every vertex from one bootstrap, so it runs sequentially
    only. *)
val run :
  ?spec:Csap_dsim.Net.spec ->
  Csap_graph.Graph.t ->
  result
