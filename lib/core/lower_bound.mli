(** The connectivity lower bound of Section 7.1 (Figures 7-8).

    The paper proves that any deterministic comparison-based connectivity /
    spanning-tree algorithm needs [Omega(min{script-E, n V})] communication,
    via the family [G_n]: a light path with heavy bypass edges. The
    indistinguishability argument (Lemma 7.1) says that for every bypass
    pair [(i, n-1-i)], some vertex must learn both an endpoint id and the
    other endpoint's bypass-register content — otherwise the execution on
    [G_n] is identical to the execution on the split graph [G_n^i], where a
    correct algorithm must behave differently.

    This module makes the argument executable:

    - {!id_ferrying_cost} computes the Omega(n V) bound's core quantity,
      [X * sum_i (n + 1 - 2i) ~ n^2 X / 4 = Omega(n V)]: the minimal
      weighted communication needed to ferry the bypass ids together
      (messages must cross [n + 1 - 2i] path edges for pair [i]);
    - {!check_split_indistinguishable} verifies structurally that [G_n] and
      [G_n^i] agree except at the swapped bypass edge, so an execution that
      never uses heavy edges and never joins pair [i]'s information cannot
      distinguish them. *)

(** [id_ferrying_cost ~n ~x] = [X * sum_{i in 1..n/2} (n + 1 - 2i)], the
    lower-bound term of Lemma 7.2 (at least [n^2 X / 4]). *)
val id_ferrying_cost : n:int -> x:int -> int

(** Structural indistinguishability check: the edge sets of [G_n] and
    [G_n^i] restricted to the path (light) edges are identical, and the only
    differences involve the bypass pair [i]. Returns the number of differing
    edges (expected: 3 — the removed bypass and the two pendants). *)
val check_split_indistinguishable : n:int -> i:int -> x:int -> int

(** Executable witness of the trade-off (the content of Figure 2's last
    row): runs CON_flood, DFS and CON_hybrid on [G_n] and returns their
    weighted communication together with both bound terms, so callers
    (tests, bench F7) can check [hybrid = O(min)] while flood/DFS pay
    [Theta(script-E)]. *)
type gn_run = {
  n : int;
  x : int;
  script_e : int;
  n_times_v : int;
  flood_comm : int;
  dfs_comm : int;
  hybrid_comm : int;
}

val run_on_gn : n:int -> x:int -> gn_run

(** [gn_params g] is the [(n, x)] of the [G_n(x)] a fixed-family run
    rebuilds from its carrier graph [g]: [n = max 4 (number of
    vertices)], [x = max 2 (heaviest weight)]. *)
val gn_params : Csap_graph.Graph.t -> int * int
