(** Weighted shortest paths, shortest-path trees and distance parameters. *)

(** Distances and parent pointers from a single source. [dist.(v)] is
    [max_int] and [parent.(v) = -1] when [v] is unreachable. *)
type sssp = {
  src : int;
  dist : int array;
  parent : int array;
}

(** Dijkstra's algorithm over an indexed heap with [decrease_key]:
    O((m + n) log n) with no per-relaxation allocation and no duplicate
    heap entries. The relaxation scan reads the graph's flat CSR rows. *)
val dijkstra : Graph.t -> src:int -> sssp

(** The pre-CSR indexed-heap Dijkstra, walking boxed [(u, w, edge_id)]
    tuple rows built afresh on each visit. Kept as the before side of the CSR
    microbenchmark ([bench_micro]'s "dijkstra n256 tuple" kernel) and as
    a test oracle: {!dijkstra} must reproduce its [dist] {e and}
    [parent] arrays exactly. *)
val dijkstra_tuple : Graph.t -> src:int -> sssp

(** The historical lazy-deletion Dijkstra over the generic {!Heap}. Kept
    as a reference implementation: regression tests check that
    {!dijkstra} reproduces its [dist] {e and} [parent] arrays exactly,
    and the microbenchmarks report the before/after speedup. *)
val dijkstra_lazy : Graph.t -> src:int -> sssp

(** Bellman-Ford, used as an independent reference in tests; O(nm). *)
val bellman_ford : Graph.t -> src:int -> sssp

(** [spt g ~src] is the shortest-path tree rooted at [src].

    Ties between equal-length paths are broken deterministically (smallest
    parent id). Raises [Invalid_argument] when [g] is disconnected. *)
val spt : Graph.t -> src:int -> Tree.t

(** [dist g u v] is the weighted distance; [max_int] when disconnected. *)
val dist : Graph.t -> int -> int -> int

(** Weighted eccentricity of a vertex. *)
val eccentricity : Graph.t -> int -> int

(** Every all-sources distance parameter. *)
type extrema = {
  diameter : int;  (** the paper's script-D *)
  radius : int;  (** [min_v Rad(v, G)] *)
  center : int;  (** the smallest vertex attaining the radius *)
  max_neighbor : int;  (** the paper's [d] *)
}

(** [extrema g] computes diameter, radius/centre and [d] exactly — the
    back-end of {!diameter}, {!radius_and_center} and the memoized
    [Params.compute]. Requires a connected graph. The result is
    identical to {!extrema_seq}'s, centre tie-break included.

    Diameter and radius come from an eccentricity-bound sweep (Takes &
    Kosters): each full Dijkstra from a vertex v bounds every w by
    [max(ecc v - d(v,w), d(v,w)) <= ecc w <= ecc v + d(v,w)], and the
    sweep stops once no vertex's bounds leave the diameter or the
    radius open. [d] takes each vertex's local maximum from its full
    Dijkstra when the sweep ran one; otherwise, as in
    {!max_neighbor_distance}, from a Dijkstra cut off at the vertex's
    heaviest edge that could still raise [d].

    Cost: a handful of O((m + n) log n) Dijkstras on graphs whose
    eccentricities spread (grids: 5; random graphs of 1024 vertices:
    about 25), plus the truncated runs, which only vertices with an
    edge heavier than the running [d] pay for. Worst case: when every
    eccentricity is equal (a cycle, a complete graph), every vertex
    stays a candidate until its own Dijkstra, so the sweep costs about
    as much as {!extrema_seq}, O(n (m + n) log n). It runs on the
    calling domain; there is no pool. *)
val extrema : Graph.t -> extrema

(** The all-sources sweep of [n] Dijkstras sharing their buffers, kept
    as the oracle {!extrema} is property-tested against. *)
val extrema_seq : Graph.t -> extrema

(** [all_pairs g] is the full distance matrix: row [v] holds
    [dist(v, u)] for every [u], [max_int] when unreachable. The [n]
    source Dijkstras are sharded across [pool] (default:
    {!Csap_pool.default}) with per-domain scratch buffers; row [v] is
    identical to [(dijkstra g ~src:v).dist] regardless of schedule.
    Sweeps below ~64 sources and pools of one domain run sequentially
    on the calling domain. *)
val all_pairs : ?pool:Csap_pool.t -> Graph.t -> int array array

(** Weighted diameter [Diam(G)]; the paper's script-D. Requires a connected
    graph. [(extrema g).diameter]. *)
val diameter : Graph.t -> int

(** Weighted radius [min_v Rad(v, G)] and the smallest centre vertex
    attaining it; [extrema]'s. Requires a connected graph. *)
val radius_and_center : Graph.t -> int * int

(** The paper's [d = max_{(u,v) in E} dist(u,v)]: the largest weighted
    distance between two *neighbouring* vertices. Always [<= W]. Since
    [dist(u,v) <= w(u,v)], only an edge heavier than the largest
    distance found so far can raise it: each vertex with such an edge
    to a larger index runs one Dijkstra cut off at the heaviest of
    them. Works on disconnected graphs too. *)
val max_neighbor_distance : Graph.t -> int
