(** Reliable exactly-once FIFO delivery over a faulty engine.

    The shim restores, on top of an engine running under a {!Fault.plan},
    exactly the link guarantee the paper's model assumes: every payload
    handed to {!send} is delivered to the receiving vertex's application
    handler exactly once, in per-directed-edge FIFO order — whatever the
    plan drops, duplicates or blacks out (as long as loss probability is
    below 1 and outage/crash windows are finite). The cost is the
    retransmission factor the fault sweep measures: acknowledgements plus
    timeout-driven retransmissions.

    Mechanics, per directed link: data packets carry per-link sequence
    numbers; the receiver delivers in sequence order (buffering gap
    packets, absorbing duplicates) and answers every data packet with a
    cumulative acknowledgement; the sender keeps unacked packets in a
    queue and retransmits them all when a timeout — initialised to
    [rto * w(e)] and doubled per silent timeout up to [max_rto * w(e)] —
    expires, driven by {!Engine.schedule} timers.

    Crash-restart follows the stable-storage model: a crashed vertex
    loses its in-flight messages and pending timers but keeps its link
    state (sequence numbers, unacked buffers, expected counters) and its
    application state. On restart the shim re-arms a fresh timer for
    every outgoing link with unacked data (stale timers are invalidated).
    Protocols get no restart hook: with the guarantee restored a clean
    protocol needs no crash-specific logic — which is what lets the
    paper's protocols run unmodified through the shim — and the engine
    counts the restarts itself ({!Engine.restarts}). *)

(** The wire format the engine carries for a shimmed protocol. *)
type 'm packet =
  | Data of { seqno : int; payload : 'm }
  | Ack of { cum : int }  (** all seqnos [<= cum] received in order *)

type 'm t

(** [create ?rto ?max_rto eng] wraps [eng], installing a packet handler
    and a restart handler on every vertex (protocols register their
    handlers through {!set_handler} instead of the engine). [rto]
    (default 3) and [max_rto] (default 64) are per-weight factors: a
    link of weight [w] times out after [rto * w], backing off by
    doubling up to [max_rto * w]. Raises [Invalid_argument] unless
    [0 < rto <= max_rto]. *)
val create : ?rto:float -> ?max_rto:float -> 'm packet Engine.t -> 'm t

(** [send t ~src ~dst m] transmits [m] reliably over the edge
    [{src, dst}]; raises [Invalid_argument] when that edge does not
    exist. *)
val send : 'm t -> src:int -> dst:int -> 'm -> unit

(** [set_handler t v f] installs [v]'s application handler: [f] sees
    each payload exactly once, in per-link FIFO order. Payloads arriving
    at a vertex without a handler raise [Failure]. *)
val set_handler : 'm t -> int -> (src:int -> 'm -> unit) -> unit

(** The wrapped engine. *)
val engine : 'm t -> 'm packet Engine.t

(** Timeout-driven data retransmissions so far. *)
val retransmissions : 'm t -> int

(** Acknowledgement packets sent so far. *)
val acks_sent : 'm t -> int

(** Application-layer deliveries so far (each payload counted once). *)
val delivered : 'm t -> int

(** Payloads currently buffered as sent-but-unacknowledged, over all
    links; [0] once every send has been delivered and acknowledged. *)
val in_flight : 'm t -> int
