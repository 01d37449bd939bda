(** Resizable binary min-heap over an arbitrary ordering.

    Used by Dijkstra / Prim (with [(priority, vertex)] pairs and lazy
    deletion) and by the discrete-event simulator's boxed oracle event
    queue. Vacated slots are nulled on {!pop_min}, so
    popped elements — engine [Local] closures in the oracle queue, and
    whatever they capture — never stay reachable through the heap's
    backing array. *)

type 'a t

(** [create ~cmp] is an empty heap ordered by [cmp] (minimum first). *)
val create : cmp:('a -> 'a -> int) -> 'a t

val size : 'a t -> int
val is_empty : 'a t -> bool

(** [add t x] inserts [x]; O(log n). *)
val add : 'a t -> 'a -> unit

(** [peek_min t] is the minimum element without removing it. *)
val peek_min : 'a t -> 'a option

(** [pop_min t] removes and returns the minimum element; O(log n). The
    vacated slot is nulled, so the heap keeps no reference to it. *)
val pop_min : 'a t -> 'a option

(** [of_list ~cmp xs] heapifies [xs]; O(n). *)
val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

(** [to_sorted_list t] drains the heap, returning elements in ascending
    order. The heap is empty afterwards. *)
val to_sorted_list : 'a t -> 'a list
