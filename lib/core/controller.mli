(** The MAIN CONTROLLER (Section 5, after [AAPS87]).

    A controller guards a diffusing computation against divergence: every
    transmission must be covered by {e permits}, where sending one message
    over [e] consumes [w(e)] resource units (the weighted reading of
    Section 5 — equivalent to subdividing [e] into [w(e)] unit edges). The
    initiator (root of the execution tree) holds a threshold of [~ 2 c_pi]
    permits; requests travel up the execution tree and grants travel down.

    To keep the control traffic low, a vertex aggregates its entire
    current deficit (buffered sends plus buffered child requests) into one
    in-flight request. Aggregation is exact, so the root mints at most the
    protocol's true demand — a correct execution under a [2 c_pi]
    threshold is never disturbed — and the measured control traffic stays
    within the [c_phi = O(c_pi log^2 c_pi)] envelope of Corollary 5.1
    (checked empirically by bench CT).

    On a correct execution the controller never interferes (all requests
    are granted). When the protocol misbehaves and the root's permit
    counter would exceed the threshold, the execution is suspended: the
    protocol stops growing, having spent at most the threshold plus
    messages already in flight. *)

(** Wire format: the controlled protocol's messages plus control traffic. *)
type 'm wire =
  | Payload of 'm
  | Request of int  (** units asked, travelling up the execution tree *)
  | Grant of int  (** units awarded, travelling back down *)

type ('m, 'outer) t

(** [create ~net ~inject ~initiator ~threshold ()] installs controller
    state over a network whose message type embeds ['m wire] via [inject]
    (pass [Fun.id] when the controller owns the network). It reads only
    the network's graph and [send]; the caller installs the handlers
    and routes incoming wire messages through {!handle}.

    With [~suspend:true] the controller parks over-threshold demand instead
    of aborting; {!raise_threshold} resumes it — the metering mechanism of
    the hybrid algorithms (Sections 7-8). [on_abort] fires at the root
    whenever demand first exceeds the threshold. *)
val create :
  net:'outer Csap_dsim.Net.t ->
  inject:('m wire -> 'outer) ->
  initiator:int ->
  threshold:int ->
  ?suspend:bool ->
  ?on_abort:(unit -> unit) ->
  unit ->
  ('m, 'outer) t

(** The multiple-initiator extension the paper mentions at the end of its
    model discussion: one diffusing computation started at several sources
    (e.g. a multi-source broadcast). Each initiator roots its own execution
    tree with its own threshold; a vertex joins the tree of whichever
    source reaches it first, and its permit requests route to that tree's
    root. An exhausted root stops minting, stalling its own tree, while
    the other sources keep their trees growing. *)
val create_multi :
  net:'outer Csap_dsim.Net.t ->
  inject:('m wire -> 'outer) ->
  initiators:(int * int) list ->
  ?suspend:bool ->
  ?on_abort:(unit -> unit) ->
  unit ->
  ('m, 'outer) t

(** [send t ~src ~dst m] routes a protocol transmission through the
    controller: it is sent immediately when [src] holds [w(e)] permits and
    buffered behind a permit request otherwise. *)
val send : ('m, 'outer) t -> src:int -> dst:int -> 'm -> unit

(** [handle t ~me ~src wire] processes one incoming wire message. Returns
    [Some m] for protocol payloads — after recording [me]'s execution-tree
    parent — and [None] for control traffic (handled internally). *)
val handle : ('m, 'outer) t -> me:int -> src:int -> 'm wire -> 'm option

(** [raise_threshold t extra] increases every root's budget by [extra] and
    retries any parked demand (suspend mode). *)
val raise_threshold : ('m, 'outer) t -> int -> unit

val threshold : ('m, 'outer) t -> int

(** Units demanded at the root so far: granted plus currently refused. *)
val demand : ('m, 'outer) t -> int

(** Units the root has granted so far (the permit counter). *)
val consumed : ('m, 'outer) t -> int

(** Units actually spent on protocol messages. *)
val spent : ('m, 'outer) t -> int

val aborted : ('m, 'outer) t -> bool

(** Protocol transmissions still waiting for permits (diagnostics). *)
val pending_sends : ('m, 'outer) t -> int
