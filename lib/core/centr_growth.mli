(** Full-information phased tree growth — the common skeleton of
    MST_centr (Section 6.3, distributed Prim) and SPT_centr (Section 6.4,
    distributed Dijkstra).

    The algorithm grows a tree from a root, one vertex per phase. The
    invariant is that every tree vertex knows the structure of the whole
    tree (hence "full information"): each phase runs a request broadcast and
    a report convergecast over the current tree, the root selects the
    winning candidate edge, broadcasts it (restoring the invariant), the
    boundary vertex invites the new vertex, and an acknowledgement returns
    to the root.

    Per phase this costs [O(w(T))] communication and [O(Diam(T))] time;
    with [n - 1] phases that is [O(n V)] / [O(n Diam(MST))] for MST_centr
    (Corollary 6.4) and [O(n w(SPT))] / [O(n D)] for SPT_centr
    (Corollary 6.6).

    The root knows the exact tree weight at all times (the {e root
    estimate}), which is the suspension handle the hybrid algorithms use. *)

type mode =
  | Mst  (** candidates ordered by canonical edge order — Prim *)
  | Spt  (** candidates ordered by tentative distance — Dijkstra *)

type msg

type 'm t

(** [create ~net ~inject ~mode ~root ...] allocates protocol state over a
    {!Csap_dsim.Net} endpoint.
    [may_proceed] is polled at the root before each phase commits its edge;
    [on_root_estimate] reports the exact projected tree weight (MST mode)
    or cumulative communication spent (both modes grow monotonically). *)
val create :
  net:'m Csap_dsim.Net.t ->
  inject:(msg -> 'm) ->
  mode:mode ->
  root:int ->
  ?may_proceed:(unit -> bool) ->
  ?on_root_estimate:(int -> unit) ->
  on_done:(unit -> unit) ->
  unit ->
  'm t

val handle : 'm t -> me:int -> src:int -> msg -> unit
val start : 'm t -> unit

(** Release a phase suspended by [may_proceed]. *)
val resume : 'm t -> unit

val finished : 'm t -> bool

(** The constructed tree (MST or SPT); valid once [finished]. *)
val tree : 'm t -> Csap_graph.Tree.t

(** Exact weight of the tree built so far, as known at the root. *)
val root_estimate : 'm t -> int

(** Distances from the root (SPT mode; valid once finished). *)
val distances : 'm t -> int array

(** {2 Standalone runners} *)

type result = {
  grown_tree : Csap_graph.Tree.t;
  measures : Measures.t;
  phases : int;
  transport : Csap_dsim.Net.stats;
}

(** [run_mst ?spec g ~root] grows the MST on its own transport, built
    from [spec] ({!Csap_dsim.Net.make}). Raises [Invalid_argument] when
    [root] is outside [0, n). *)
val run_mst :
  ?spec:Csap_dsim.Net.spec ->
  Csap_graph.Graph.t ->
  root:int ->
  result

(** As {!run_mst}, for the shortest-path tree. *)
val run_spt :
  ?spec:Csap_dsim.Net.spec ->
  Csap_graph.Graph.t ->
  root:int ->
  result
