(** Execution traces: record a run's schedule, export it, replay it.

    A trace is a buffer of [Send]/[Deliver]/[Local] records stamped with
    simulated times, event sequence numbers, edge ids and per-directed-edge
    ordinals. An engine created inside a {!with_collector} scope appends
    to its own trace as it executes; a completed
    trace can be exported as JSONL — the artifact the CI schedule-sweep
    uploads on failure — and turned back into a {!Delay.t} oracle with
    {!recorded}, which replays the exact recorded schedule: re-running the
    same protocol under it reproduces the original execution event for
    event (the replay contract, see DESIGN.md §10). *)

type kind =
  | Send  (** a message was sent (delay freshly sampled) *)
  | Deliver  (** a message was delivered to its handler *)
  | Local  (** a local event (timer/bootstrap) ran *)
  | Dropped
      (** a message was lost: at send time by the fault plan (loss,
          outage, down sender — no delay sampled), or at delivery time
          because the receiver was down or had crashed since the send *)
  | Dup
      (** the extra copy a {!Fault.Duplicate} disposition enqueued; its
          [delay] is the copy's sampled delay (from the fault plan, not
          the delay model) *)
  | Decision
      (** a {!Delay.Adaptive} model chose this send's delay; recorded
          immediately before the matching [Send] with the same identity
          and delay, so the decision trace alone replays the schedule
          (see {!recorded}) while {!without_decisions} recovers the
          event stream an oblivious replay produces *)

type event = {
  kind : kind;
  time : float;  (** simulated clock at the record *)
  seq : int;  (** engine sequence number of the queued event *)
  edge : int;  (** edge id; [-1] for [Local] *)
  dir : int;  (** [0] when the sender is the smaller endpoint; [-1] local *)
  nth : int;  (** ordinal of the message on its directed edge; [-1] local *)
  src : int;  (** sender; [-1] for [Local] *)
  dst : int;  (** receiver; [-1] for [Local] *)
  delay : float;  (** sampled delay ([Send] only; [0] otherwise) *)
}

type t

(** [create ()] is an empty trace; it grows without bound. *)
val create : unit -> t

(** Number of events held. *)
val length : t -> int

(** Append one event (the engine's hook; exposed for tests). *)
val add : t -> event -> unit

(** The held events, oldest first (a fresh array). *)
val events : t -> event array

(** Event-for-event equality of the held events. *)
val equal : t -> t -> bool

(** [without_decisions t] is [t] with every [Decision] record removed —
    the event stream an oblivious replay of [t]'s schedule produces.
    The replay contract for adaptive runs is
    [equal (without_decisions original) replayed]. *)
val without_decisions : t -> t

(** The [Decision] records of [t], oldest first. *)
val decisions : t -> event array

(** {2 JSONL}

    One JSON object per line, fields in fixed order:
    [{"kind":"send","time":T,"seq":..,"edge":..,"dir":..,"nth":..,"src":..,"dst":..,"delay":D}],
    with [T] and [D] printed as C's [%.17g] prints them (enough digits to
    round-trip, so [of_jsonl (to_jsonl t)] holds every event of [t]
    exactly) and the ints in decimal. The format is byte-stable: the same
    events always produce the same bytes, and committed dumps stay valid
    test fixtures. *)

val to_jsonl : t -> string

(** Parses traces produced by {!to_jsonl}, and only those: the reader
    rejects whitespace inside a record, trailing bytes and number syntax
    the writer never emits ([1_000], [+1], [0x1p3], [nan]). Raises
    [Invalid_argument] on malformed lines, naming the 1-based line number
    (and [file], when given) of the first bad line — precise enough to
    locate the truncation point of a half-written file. *)
val of_jsonl : ?file:string -> string -> t

(** [save_jsonl t path] writes [to_jsonl t] to [path], streamed in
    chunks of about 64 KB: memory stays bounded whatever the trace's
    length. An empty trace writes an empty file. *)
val save_jsonl : t -> string -> unit

val load_jsonl : string -> t

(** {2 Replay} *)

(** [recorded t] is a {!Delay.t} oracle that replays the schedule recorded
    in [t]: the [nth] send on a directed edge gets exactly the delay that
    was sampled for it in the recorded run, so replaying the same
    deterministic protocol reproduces the original execution — identical
    event order and identical metrics. Raises [Invalid_argument] (at
    sample time) if the replayed execution asks for a send the recording
    never made. The oracle's name is ["recorded"]. *)
val recorded : t -> Delay.t

(** {2 Ambient collection}

    Protocol entry points ([Flood.run], [Mst_ghs.run], ...) build their
    engines internally, so callers cannot attach traces by hand. Inside
    [with_collector f], every engine created by the current domain
    registers a fresh trace; the scope returns them in engine-creation
    order. Scopes are domain-local and nest (the previous collector is
    restored on exit), so pool workers exploring schedules in parallel
    never mix their traces. *)

(** [with_collector f] runs [f], collecting a trace per engine created
    within. *)
val with_collector : (unit -> 'a) -> 'a * t list

(** Called by [Engine.create]: a fresh registered trace when a collector
    is active on this domain, [None] otherwise. *)
val register : unit -> t option
