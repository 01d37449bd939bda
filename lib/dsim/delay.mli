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
    plug their schedules into. *)

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

(** [sample_into t ~edge_id ~dir ~nth ~w out] stores into [out.(0)]
    the delay of the [nth] message (0-based) on directed edge
    [(edge_id, dir)] of weight [w]; [w >= 1] required. The five fixed
    policies ignore the message context and draw from [(0, w]] as
    documented on {!t}; {!Oracle} applies its function. The sample is
    written, not returned — a float-array write instead of a boxed float
    return — so the engines' send paths stay allocation-free under the
    static models (Exact, Scaled, Near_zero). *)
val sample_into :
  t -> edge_id:int -> dir:int -> nth:int -> w:int -> float array -> unit

(** [oracle ~name fn] is [Oracle {name; fn}]. *)
val oracle :
  name:string -> (edge_id:int -> dir:int -> nth:int -> w:int -> float) -> t

(** {2 Built-in adversaries} *)

(** [slow_edge id] delays every message on edge [id] by its full weight
    (times [slow], default 1) while all other edges deliver almost
    instantly ([fast * w], default a tiny epsilon): the adversary that
    races the rest of the network past one straggling link. Both factors
    must lie in [(0, 1]]. *)
val slow_edge : ?slow:float -> ?fast:float -> int -> t

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
    global sampling order. Only order-independent models can drive the
    partitioned engine ({!Pengine}), where sends from different domains
    interleave nondeterministically. *)
val order_independent : t -> bool

(** [lower_bound t ~w] is a static positive lower bound on every delay
    the model can produce on a weight-[w] edge, or [None] when no such
    bound exists ([Uniform]'s open interval, arbitrary [Oracle]s). The
    partitioned engine's conservative lookahead is the minimum of this
    bound over the cut edges; [None] forces lockstep windows. *)
val lower_bound : t -> w:int -> float option

val pp : Format.formatter -> t -> unit
