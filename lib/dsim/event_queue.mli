(** Allocation-free delivery queue for the engine's hot loop.

    A 4-ary min-heap keyed by [(time, seq)] — earliest time first, send
    order breaking ties — kept in full struct-of-arrays layout: times,
    sequence numbers, sources, destinations, crash epochs and payloads
    each live in their own flat array, so pushing a delivery writes six
    unboxed rows and allocates {e zero} heap words (no event record, no
    boxed key, no closure). Local events (timers, crash hooks) park
    their closure in a small side slot table and occupy a heap row
    tagged with [src = -1]; the caller allocated the closure anyway, so
    the queue itself still adds nothing per event.

    The minimum is read field-by-field ({!min_time}, {!min_src}, …) and
    removed with {!drop_min}, so popping never re-materialises an event
    value either. *)

type 'msg t

(** [create ?capacity ()] is an empty queue with room for [capacity]
    events (default 16) before the first geometric grow. Engines
    pre-size from the graph's edge count so steady-state runs never
    grow mid-flight. *)
val create : ?capacity:int -> unit -> 'msg t

val size : 'msg t -> int
val is_empty : 'msg t -> bool

(** [push_deliver t ~time ~seq ~src ~dst ~epoch payload] enqueues a
    delivery. [seq] values must be distinct across both push functions
    (the engine uses its send counter), making the pop order total.
    Allocation-free apart from amortised geometric growth. *)
val push_deliver :
  'msg t -> time:float -> seq:int -> src:int -> dst:int -> epoch:int ->
  'msg -> unit

(** [push_deliver_from t ~times ~at ...] is [push_deliver] with the time
    read from [times.(at)] inside the call. The engine's send path uses
    this to hand over the arrival time it just stored in its FIFO-stamp
    column: dune's dev profile compiles with [-opaque] (no cross-module
    inlining), so a float {e argument} would be boxed at every send,
    while an array-and-index crossing stays allocation-free. *)
val push_deliver_from :
  'msg t -> times:float array -> at:int -> seq:int -> src:int -> dst:int ->
  epoch:int -> 'msg -> unit

(** [push_local t ~time ~seq f] enqueues a local event holding [f]. *)
val push_local : 'msg t -> time:float -> seq:int -> (unit -> unit) -> unit

(** Earliest queued time. Raises [Invalid_argument] when empty. *)
val min_time : 'msg t -> float

(** The raw time column: index 0 is the current minimum's time when the
    queue is non-empty. Same [-opaque] story as {!push_deliver_from} —
    the engine's loop reads [(times q).(0)] as an unboxed load where a
    {!min_time} call would box its float return every iteration. The
    array is replaced on growth: re-fetch after any push, never cache
    across one. *)
val times : 'msg t -> float array

(** Sequence number of the next pop (the tie-break key of the minimum).
    Raises [Invalid_argument] when empty; used by the engine's tracer to
    stamp dispatched events. *)
val min_seq : 'msg t -> int

(** True when the minimum is a local event ([push_local]). Unchecked:
    only meaningful on a non-empty queue. *)
val min_is_local : 'msg t -> bool

(** Delivery fields of the minimum. Unchecked field reads: only
    meaningful on a non-empty queue whose minimum is a delivery. *)
val min_src : 'msg t -> int

val min_dst : 'msg t -> int
val min_epoch : 'msg t -> int
val min_payload : 'msg t -> 'msg

(** Closure of the minimum; only meaningful when [min_is_local]. *)
val min_local : 'msg t -> unit -> unit

(** Removes the minimum, releasing its payload or closure slot. Raises
    [Invalid_argument] when empty. *)
val drop_min : 'msg t -> unit
