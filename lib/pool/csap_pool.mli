(** A reusable work-stealing pool of OCaml 5 domains.

    Extracted and generalised from the benchmark harness's ad-hoc pool:
    a [run] fans a fixed number of independent tasks out over the pool's
    domains, claiming task indices from a shared atomic counter, and
    joins every worker before returning — so the caller may freely read
    anything the tasks wrote. Spawning happens per [run] (domains are
    not parked between runs); a [t] is only its configuration.

    Determinism: tasks are claimed in an arbitrary order, so tasks must
    be independent; callers wanting deterministic results should have
    task [i] write only slot [i] of a preallocated result array and
    reduce sequentially after [run] returns (see [Paths.all_pairs]).

    Nesting: [run] only spawns from the main domain. Called from a
    worker domain (e.g. a parallel analysis inside a pooled benchmark
    job) it degrades to a sequential loop on the calling domain rather
    than oversubscribing the machine. *)

type t

(** [create ?domains ()] is a pool of [domains] workers (the calling
    domain counts as worker 0; [domains - 1] further domains are spawned
    per [run]). Default: [Domain.recommended_domain_count ()]. Raises
    [Invalid_argument] when [domains < 1]. *)
val create : ?domains:int -> unit -> t

(** Number of workers, including the calling domain. *)
val domains : t -> int

(** The shared default pool, sized [Domain.recommended_domain_count ()];
    created on first use. *)
val default : unit -> t

(** [run t ~tasks f] executes [f ~worker i] for every [i] in
    [0 .. tasks - 1] exactly once and returns when all have finished.
    [worker] is the index ([0 .. domains t - 1]) of the domain running
    the task — use it to pick a per-domain scratch buffer. If any task
    raises, one of the exceptions is re-raised in the caller after all
    workers have joined.

    A [t] must not be shared by two concurrent [run]s. *)
val run : t -> tasks:int -> (worker:int -> int -> unit) -> unit

(** A bounded blocking queue for long-lived worker domains.

    [run] fans out a {e fixed} batch of tasks; a job {e server} instead
    keeps worker domains parked on a queue whose bound is the
    backpressure contract: producers that outrun the workers block (or
    see [try_push = false]) instead of growing an unbounded backlog.
    Safe across OCaml 5 domains ([Mutex]/[Condition] from the stdlib);
    FIFO per queue. *)
module Bqueue : sig
  type 'a t

  (** [create ~capacity ()] is an empty queue admitting at most
      [capacity] unconsumed elements. Raises [Invalid_argument] when
      [capacity < 1]. *)
  val create : capacity:int -> unit -> 'a t

  (** Elements currently queued (a racy snapshot). *)
  val length : 'a t -> int

  val capacity : 'a t -> int

  (** [try_push t x] enqueues [x] unless the queue is full or closed;
      [false] means "not accepted" (the backpressure signal). *)
  val try_push : 'a t -> 'a -> bool

  (** [push t x] blocks while the queue is full. Raises
      [Invalid_argument] if the queue is (or becomes) closed. *)
  val push : 'a t -> 'a -> unit

  (** [pop t] blocks while the queue is empty; [None] once the queue is
      closed {e and} drained — the worker-shutdown signal. *)
  val pop : 'a t -> 'a option

  (** Close the queue: no further pushes are accepted; queued elements
      drain; blocked and future [pop]s return [None] once empty.
      Idempotent. *)
  val close : 'a t -> unit

  val is_closed : 'a t -> bool
end
