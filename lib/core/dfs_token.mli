(** Distributed depth-first search with cost estimates (Section 6.2).

    A single token performs the DFS; every edge is traversed at most twice
    (visit + reject, or visit + retreat), giving [O(script-E)] communication
    and time. The algorithm maintains the paper's two estimates:

    - the {e center estimate} [EST_C], carried with the token: the exact
      total weight of edges traversed so far;
    - the {e root estimate} [EST_R], kept at the root and refreshed whenever
      the next traversal would double [EST_C] relative to it. Refreshing
      moves the centre of activity to the root and back, which at most
      doubles the communication (a geometric sum), and gives the root a
      2-approximate, monotone view of the spending — the handle used by the
      hybrid algorithms of Sections 7-8 to suspend the costlier branch.

    The module exposes a composable interface ([create]/[handle]/[start])
    so CON_hybrid can multiplex it with MST_centr on one engine, plus a
    standalone [run]. *)

type msg

(** Protocol state; ['m] is the transport's message type. *)
type 'm t

(** [create ~net ~inject ~root ...] allocates the protocol state over a
    {!Csap_dsim.Net} endpoint whose message type embeds [msg] via
    [inject].

    [may_proceed] is polled at the root each time the root estimate rises;
    returning [false] suspends the token at the root until {!resume}.
    [on_root_estimate] fires at the root on every estimate refresh. *)
val create :
  net:'m Csap_dsim.Net.t ->
  inject:(msg -> 'm) ->
  root:int ->
  ?may_proceed:(unit -> bool) ->
  ?on_root_estimate:(int -> unit) ->
  on_done:(unit -> unit) ->
  unit ->
  'm t

(** Dispatch an embedded message to the protocol. *)
val handle : 'm t -> me:int -> src:int -> msg -> unit

(** Inject the token at the root (schedules a time-0 local event). *)
val start : 'm t -> unit

(** Release a token suspended by [may_proceed]; call when the engine's
    centre of activity is at the root. No-op when not suspended. *)
val resume : 'm t -> unit

val finished : 'm t -> bool

(** The DFS tree; only valid once [finished]. *)
val tree : 'm t -> Csap_graph.Tree.t

val root_estimate : 'm t -> int

(** {2 Standalone} *)

type result = {
  dfs_tree : Csap_graph.Tree.t;
  measures : Measures.t;
  final_center_estimate : int;
  final_root_estimate : int;
  transport : Csap_dsim.Net.stats;
}

(** [run ?spec g ~root] performs a complete DFS on its own transport.
    Behind the shim ([spec.reliable]) the walk is correct under any
    survivable fault plan; over a raw faulty engine a dropped token
    deadlocks the run ([failwith] on non-termination). Raises [Invalid_argument]
    when [root] is outside [0, n). *)
val run :
  ?spec:Csap_dsim.Net.spec ->
  Csap_graph.Graph.t ->
  root:int ->
  result
