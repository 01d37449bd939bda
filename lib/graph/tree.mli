(** Rooted spanning trees, represented by parent pointers.

    Trees are the central object of the paper: shortest-path trees, minimum
    spanning trees and shallow-light trees are all values of this type. A
    tree over [n] vertices has [parent.(root) = -1] and
    [weight_to_parent.(root) = 0]; vertices not reachable from the root are
    not permitted ([of_parents] rejects them). *)

type t

(** [of_parents ~root ~parents ~weights] validates and builds a tree.

    Raises [Invalid_argument] unless [parents] describes a single tree rooted
    at [root] covering all [n = Array.length parents] vertices, with positive
    weights on every non-root vertex's parent edge. *)
val of_parents : root:int -> parents:int array -> weights:int array -> t

val n : t -> int
val root : t -> int

(** [parent t v] is [Some (p, w)] for a non-root [v], [None] for the root. *)
val parent : t -> int -> (int * int) option

(** Children lists (shared array: do not mutate). *)
val children : t -> int -> int list

(** Edges as [(parent, child, w)] triples, one per non-root vertex. *)
val edges : t -> (int * int * int) list

(** Sum of edge weights [w(T)]. *)
val total_weight : t -> int

(** [depth t v] is the weighted distance from the root to [v]. *)
val depth : t -> int -> int

(** Maximum weighted depth over all vertices. *)
val height : t -> int

(** Weighted diameter of the tree (max over pairs of the tree-path weight). *)
val diameter : t -> int

(** [path t x y] is the unique tree path from [x] to [y], inclusive. *)
val path : t -> int -> int -> int list

(** [path_weight t x y] is the weight of the tree path from [x] to [y]. *)
val path_weight : t -> int -> int -> int

(** [euler_tour t] is the closed depth-first tour of the tree from the root:
    a sequence of [2n - 1] vertices where consecutive entries are joined by a
    tree edge and every tree edge is traversed exactly twice. Children are
    visited in increasing order of vertex id. *)
val euler_tour : t -> int array

(** [is_spanning_tree_of g t] checks that every tree edge is an edge of [g]
    with matching weight (and that [t] spans [g]'s vertex set). *)
val is_spanning_tree_of : Graph.t -> t -> bool

(** [to_graph t] forgets the rooting, yielding the tree as a graph. *)
val to_graph : t -> Graph.t

val pp : Format.formatter -> t -> unit
