(** Shallow-light trees (Section 2.2, Figures 5-6).

    A spanning tree is {e shallow-light} when its diameter is [O(D)] and its
    weight is [O(V)] simultaneously. The construction (the "SLT algorithm"):

    + build an MST [T_M] and an SPT [T_S] rooted at [v0];
    + unroll [T_M] into its Euler-tour line [L] (each tree edge appears
      twice, so [w(L) <= 2 V]);
    + scan [L] left to right placing breakpoints: the next breakpoint is the
      first point whose line-distance from the previous breakpoint exceeds
      [q] times their distance in [T_S];
    + add the [T_S] paths between consecutive breakpoints to [T_M], and
      return a shortest-path tree of the resulting subgraph [G'].

    Guarantees (Lemmas 2.4-2.5): [w(T) <= (1 + 2/q) V] and depth
    [O(q) * D]; the extended abstract states [Diam(T) <= (q+1) D] — the
    scan argument yields depth [<= (2q+1) D] in general, and both the exact
    weight bound and the [(2q+1) D] depth bound are enforced by this
    implementation's tests, with measured diameters reported by bench F5. *)

type t = {
  tree : Csap_graph.Tree.t;  (** the shallow-light tree *)
  q : float;  (** the trade-off parameter used *)
  line : int array;  (** the Euler line [v(0..2n-2)] of the MST *)
  breakpoints : int list;  (** mileage indices [B_1 = 0 < B_2 < ...] *)
  added_paths : (int * int) list;
      (** [(v(B_i), v(B_i+1))] pairs whose [T_S] path was added to [G'] *)
  mst : Csap_graph.Tree.t;
  spt : Csap_graph.Tree.t;
}

(** [build ?q g ~root] runs the SLT algorithm; [q > 0] (default [2.0]).
    Requires a connected graph. *)
val build : ?q:float -> Csap_graph.Graph.t -> root:int -> t

(** [weight_bound ~q ~script_v] = [(1 + 2/q) * V], Lemma 2.4. *)
val weight_bound : q:float -> script_v:int -> float

(** [depth_bound ~q ~script_d] = [(2q + 1) * D] (see module comment). *)
val depth_bound : q:float -> script_d:int -> float

(** [is_shallow_light t ~script_v ~script_d] checks both guarantees. *)
val is_shallow_light : t -> script_v:int -> script_d:int -> bool

(** [centre_tree g] is the shallow-light tree ([q = 2]) rooted at a
    centre of [g] ({!Csap_graph.Paths.radius_and_center}): the one global
    tree of the beta synchronizers. *)
val centre_tree : Csap_graph.Graph.t -> Csap_graph.Tree.t
