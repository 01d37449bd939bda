(** Weighted undirected communication graphs [G = (V, E, w)].

    Vertices are [0 .. n-1]. Edge weights are positive integers: the paper
    assumes [W = poly(n)], and a weight [w(e)] is at once the cost of sending
    one message over [e] and an upper bound on its delay.

    The structure is immutable after construction. *)

type edge = {
  u : int;  (** smaller endpoint *)
  v : int;  (** larger endpoint *)
  w : int;  (** weight, [>= 1] *)
}

type t

(** [create ~n edges] builds a graph on vertices [0..n-1].

    Raises [Invalid_argument] on self-loops, duplicate edges, weights [< 1],
    or endpoints out of range. Edge endpoints are normalised so [u < v]. *)
val create : n:int -> (int * int * int) list -> t

(** [of_stream ~n iter] builds a graph from a replayable edge stream:
    [iter f] must call [f u v w] once per edge, and is invoked {e twice}
    — a count pass (degrees and edge count) and a fill pass writing the
    CSR arrays directly. No intermediate tuple list is materialised, so
    an m-edge graph builds in O(m) flat-array words; this is the
    million-vertex generator path.

    Edge ids are assigned in stream order, so a generator emitting the
    same sequence as a tuple list fed to {!create} produces an
    identical graph. The two passes must replay identically (generators
    derive weights from pure hashes or re-seeded RNGs, never shared
    mutable state); a stream that changes length between passes raises
    [Invalid_argument]. Self-loops, out-of-range endpoints and weights
    [< 1] are rejected as in {!create}, but {e duplicate edges are not
    detected} — avoiding the O(m) hash table is the point — so callers
    must guarantee each undirected edge appears once. *)
val of_stream : n:int -> ((int -> int -> int -> unit) -> unit) -> t

(** Number of vertices. *)
val n : t -> int

(** Number of edges. *)
val m : t -> int

(** [check_root fn g r] raises [Invalid_argument
    "<fn>: root <r> out of range [0, <n>)"] unless [r] is a vertex of
    [g] — the one range check of every run taking a root or source. *)
val check_root : string -> t -> int -> unit

(** A unique identity for this graph value, assigned at construction.
    Monotonically increasing and domain-safe; used to key per-instance
    memoization caches (see {!Params.compute}). *)
val id : t -> int

(** All edges, in a fixed order; the index of an edge in this array is its
    stable edge id. *)
val edges : t -> edge array

(** [edge t id] is the edge with id [id]. *)
val edge : t -> int -> edge

(** [iter_neighbors t v f] calls [f u w edge_id] for every edge [{v,u}]
    incident to [v], in per-vertex edge-id order (the order of [v]'s CSR
    row). Allocation-free: the loop reads the graph's flat CSR rows. *)
val iter_neighbors : t -> int -> (int -> int -> int -> unit) -> unit

(** [fold_neighbors t v f init] folds [f acc u w edge_id] over [v]'s
    incident edges in the same order as {!iter_neighbors}. *)
val fold_neighbors : t -> int -> ('a -> int -> int -> int -> 'a) -> 'a -> 'a

(** [degree t v] is the number of incident edges; O(1) from the CSR row
    offsets. *)
val degree : t -> int -> int

(** {2 Raw CSR rows}

    The adjacency lives in compressed-sparse-row form: vertex [v]'s
    incident edges occupy slots [csr_offsets t .(v) .. csr_offsets t
    .(v+1) - 1] of the flat parallel arrays below, in per-vertex edge-id
    order. Exposed for same-repo hot loops (Dijkstra's relaxation scan)
    and layout tests; the arrays are the graph's own — do not mutate. *)

(** Row offsets; length [n + 1], with [csr_offsets t .(n) = 2 * m]. *)
val csr_offsets : t -> int array

(** Other endpoint per slot; length [2 * m]. *)
val csr_neighbors : t -> int array

(** Edge weight per slot; length [2 * m]. *)
val csr_weights : t -> int array

(** Edge id per slot; length [2 * m]. *)
val csr_edge_ids : t -> int array

(** [edge_between t u v] is [Some (w, edge_id)] when [{u,v}] is an edge.

    Served by a per-vertex edge index built once in [create]: O(1) for
    bounded-degree vertices, O(log deg) by sorted-adjacency binary search
    for high-degree ones. Allocation-free callers should prefer
    {!edge_id_between}. *)
val edge_between : t -> int -> int -> (int * int) option

(** [edge_id_between t u v] is the id of edge [{u,v}], or [-1] when absent.
    Same complexity as {!edge_between} but allocates nothing — this is the
    simulator's per-message lookup (see [Engine.send]). *)
val edge_id_between : t -> int -> int -> int

(** The pre-index reference lookup: a linear scan of [u]'s adjacency list,
    O(degree u). Kept for the before/after microbenchmarks and as a test
    oracle for the indexed path. *)
val edge_id_between_scan : t -> int -> int -> int

(** [neighbor_index t u v] is the position of [v] in [u]'s CSR row, or
    [-1] when [{u,v}] is not an edge. Same indexed complexity as
    {!edge_between}; used by protocols that keep per-port state. *)
val neighbor_index : t -> int -> int -> int

(** [other_endpoint e x] is the endpoint of [e] that is not [x]. *)
val other_endpoint : edge -> int -> int

(** Total edge weight [w(G)]; the paper's script-E. *)
val total_weight : t -> int

(** Maximum edge weight [W]. *)
val max_weight : t -> int

(** Id of a maximum-weight edge, the lowest id on ties; [0] when the
    graph has no edges. The link the slow-edge schedules stall. *)
val heaviest_edge : t -> int

(** Whether the graph is connected (vacuously true for [n <= 1]). *)
val is_connected : t -> bool

(** [map_weights t f] is a graph with the same topology where edge [e] has
    weight [f e]; [f] must return weights [>= 1]. *)
val map_weights : t -> (edge -> int) -> t

(** [subgraph t ~keep_edge] retains the same vertex set and only the edges
    satisfying the predicate. *)
val subgraph : t -> keep_edge:(edge -> bool) -> t

(** Compare edges by [(w, u, v)] lexicographically. Distinct edges always
    compare unequal, giving the canonical distinct-weight order required by
    GHS-style algorithms. *)
val compare_edges : edge -> edge -> int

val pp : Format.formatter -> t -> unit
