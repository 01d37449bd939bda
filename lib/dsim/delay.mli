(** Delay models for asynchronous links.

    The paper's model lets the delay of a message on edge [e] vary in
    [(0, w(e)]]. Every model below respects those bounds; protocols must be
    correct under all of them, while complexity measurements use [Exact]
    (the [w(e)]-normalised execution the paper's time bounds refer to).

    The paper's time bounds carry a universal quantifier — they must hold
    for {e every} delay assignment in [(0, w(e)]] — so besides the five
    fixed policies this module exposes a programmable {!Oracle}: an
    arbitrary function of the message's identity (edge id, direction,
    ordinal on that directed edge) that the schedule-adversary harness
    ({!Csap_sched.Sched_explore}) and trace replay ({!Trace.recorded})
    plug their schedules into.

    A schedule fixed before the run and one chosen by an adversary
    watching the run are both such assignments, so both are a [t]: an
    {!Adaptive} model is consulted by {!Engine} at each send with a
    read-only {!Obs} view of the run and returns the next delay. It
    reaches an engine through the same [delay] field of {!Net.spec} as
    every other model. Adaptivity is order-dependent ({!order_independent} is
    [false]), so the partitioned engine rejects it; determinism is
    restored by {e replay}: every adaptive decision is recorded as a
    {!Trace.Decision} event, and {!Trace.recorded} turns the decision
    trace back into an oblivious oracle that reproduces the run event
    for event (DESIGN.md §17). *)

(** A programmable schedule: [fn ~edge_id ~dir ~nth ~w] is the delay of
    the [nth] message (0-based) sent on the directed edge
    [(edge_id, dir)] of weight [w]. [dir] is [0] when the sender is the
    edge's smaller endpoint. The function must be pure — replay and
    sharded exploration call it in arbitrary order — and should return
    values in [(0, w]] (the engine rejects NaN/infinite/negative
    results). [name] appears in {!pp} and error messages. *)
type oracle = {
  name : string;
  fn : edge_id:int -> dir:int -> nth:int -> w:int -> float;
}

(** A read-only window onto a running engine, over state the engine
    maintains anyway (shared arrays, no copying). *)
module Obs : sig
  type t

  (** Built by [Engine.create]; the arrays are shared with (and mutated
      by) the engine: the one-slot clock and the in-flight delivery
      count per directed edge [2 * edge_id + dir]. Not for protocol
      code. *)
  val make : m:int -> clock:float array -> inflight:int array -> t

  (** Current simulated time. *)
  val now : t -> float

  (** The edge with the most in-flight deliveries (ties to the lowest
      id); [-1] when nothing is in flight. O(edges). *)
  val busiest_edge : t -> int
end

(** An adaptive model: [next_delay obs ~edge_id ~dir ~nth ~w] is the
    delay of the [nth] message on the directed edge [(edge_id, dir)] of
    weight [w], chosen after observing the run through [obs]. It must
    return a finite, non-negative delay (the engine validates, exactly
    as for the other models); admissible schedules keep it within
    [(0, w]]. [name] appears in {!pp} and error messages. *)
type adaptive = {
  name : string;
  next_delay : Obs.t -> edge_id:int -> dir:int -> nth:int -> w:int -> float;
}

type t =
  | Exact  (** delay is exactly [w(e)] — the normalised schedule *)
  | Uniform of Csap_graph.Rng.t
      (** delay uniform in [(0, w(e)]], independently per message *)
  | Scaled of float
      (** delay is [c * w(e)] for a fixed [0 < c <= 1] — a uniformly
          fast network *)
  | Near_zero
      (** a tiny positive delay regardless of weight — the adversary that
          exposes algorithms relying on weights for timing *)
  | Jitter of Csap_graph.Rng.t
      (** delay in [[w(e)/2, w(e)]] — bounded jitter around the weight *)
  | Oracle of oracle  (** programmable per-message schedule *)
  | Adaptive of adaptive
      (** an adversary observing the run; only {!Engine} can consult
          it *)

(** [sample_into t ~edge_id ~dir ~nth ~w out] stores into [out.(0)]
    the delay of the [nth] message (0-based) on directed edge
    [(edge_id, dir)] of weight [w]; [w >= 1] required. The five fixed
    policies ignore the message context and draw from [(0, w]] as
    documented on {!t}; {!Oracle} applies its function; {!Adaptive}
    raises [Invalid_argument], since only {!Engine} holds the
    observation view it needs. The sample is
    written, not returned — a float-array write instead of a boxed float
    return — so the engines' send paths stay allocation-free under the
    static models (Exact, Scaled, Near_zero). *)
val sample_into :
  t -> edge_id:int -> dir:int -> nth:int -> w:int -> float array -> unit

(** [oracle ~name fn] is [Oracle {name; fn}]. *)
val oracle :
  name:string -> (edge_id:int -> dir:int -> nth:int -> w:int -> float) -> t

(** {2 Built-in oblivious adversaries} *)

(** [slow_edge id] delays every message on edge [id] by its full weight
    while every other message takes the same tiny epsilon as
    {!Near_zero}, whatever its edge's weight: the adversary that races
    the rest of the network past one straggling link. *)
val slow_edge : int -> t

(** Direction-asymmetric schedule: messages from the smaller endpoint
    ([dir = 0]) take their full weight, replies cross almost instantly —
    the adversary that makes waves crossing an edge in opposite
    directions meet as unfairly as the model allows. *)
val race_crossing : t

(** [hash_unit a b c d] is the splitmix64 finalizer hash of the four ints
    mapped into [[0, 1)] — the per-message-identity uniform that {!seeded}
    is built on, exported so the fault layer ({!Fault.seeded}) draws its
    Bernoulli coins from the same generator family without sharing any
    stream state. *)
val hash_unit : int -> int -> int -> int -> float

(** [seeded seed] draws the delay of each message in [(0, w]] from a hash
    of [(seed, edge_id, dir, nth)]: deterministic per message {e identity}
    rather than per sampling order, so runs are reproducible under
    sharding and replay. Distinct seeds give independent schedules. *)
val seeded : int -> t

(** Whether sampling is a pure function of the message identity
    [(edge_id, dir, nth, w)] — true for [Exact], [Scaled], [Near_zero]
    and every [Oracle] (pure by contract), false for [Uniform] and
    [Jitter], which advance shared RNG state and therefore depend on the
    global sampling order, and for [Adaptive], which reads the run's
    global state. Only order-independent models can drive the
    partitioned engine ({!Pengine}), where sends from different domains
    interleave nondeterministically. *)
val order_independent : t -> bool

(** [lower_bound t ~w] is a static positive lower bound on every delay
    the model can produce on a weight-[w] edge, or [None] when no such
    bound exists ([Uniform]'s open interval, arbitrary [Oracle]s,
    [Adaptive] models). The
    partitioned engine's conservative lookahead is the minimum of this
    bound over the cut edges; with [None] it pre-samples each cut slot's
    next delay instead (an [Oracle] is a pure function of the message
    identity). *)
val lower_bound : t -> w:int -> float option

(** Prints the model; an [Adaptive] one prints its [name]. *)
val pp : Format.formatter -> t -> unit

(** {2 Built-in adaptive models}

    Both are deterministic functions of the observation, so their runs
    replay exactly from the decision trace. Fresh state per call — a
    returned model must not be shared across concurrent engines. *)

(** The greedy communication maximiser: stalls the edge that already has
    the most in-flight work by the full window [w] and rushes everything
    else, concentrating contention to force retries/echoes out of
    contention-sensitive protocols. *)
val greedy_commax : unit -> t

(** The time stretcher: lets a send extend the adversary's completion
    frontier by the full window [w] whenever it can, and rushes sends
    that cannot — every delivery lands just inside the allowed window or
    immediately, maximising the makespan a single chain can reach. *)
val time_stretcher : unit -> t

(** The built-in roster, by spec name (["greedy"; "stretch"]). *)
val adaptive_specs : string list

(** [adaptive_of_spec s] parses an adversary spec as accepted by
    [csap_cli --adversary] and farm cells: ["greedy"] and ["stretch"]
    build fresh built-ins. The error lists the vocabulary. *)
val adaptive_of_spec : string -> (t, string) result
