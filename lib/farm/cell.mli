(** One sweep cell: a protocol name plus a fully-specified run
    configuration, in the CLI's flag vocabulary.

    A cell is the farm's unit of work and the unit of checkpointing: it
    serialises to one canonical JSON object whose digest identifies the
    cell inside a manifest, so a resumed sweep can prove "this completed
    cell is the same work" before skipping it. Everything needed to
    rebuild the run — graph family and size, seeds, delay spec, fault
    probabilities, protocol knobs — lives in the cell; nothing refers to
    in-memory state. *)

type t = {
  protocol : string;
  family : string;  (** graph family, as the CLI's [--family] *)
  n : int;
  w : int;
  seed : int;  (** graph-generator seed *)
  root : int;
  delay : string option;  (** delay spec string, as the CLI's [--delay] *)
  adversary : string option;
      (** adaptive adversary spec, as the CLI's [--adversary]: the run's
          {!Csap_dsim.Delay.Adaptive} model, so it conflicts with [delay]
          ({!run} rejects a cell setting both) *)
  loss : float;
  dup : float;
  fault_seed : int;
  reliable : bool;
  pulses : int option;
  strip : int option;
  k : int option;
  q : float option;
  domains : int option;
  trace : string option;
      (** trace-dump prefix baked into the cell, so farm workers dump
          replayable JSONL for this cell; cells without it keep their
          pre-existing digests ([None] fields are omitted from the
          canonical JSON) *)
  check : bool;  (** run the sequential-oracle invariant *)
}

val make :
  ?family:string ->
  ?n:int ->
  ?w:int ->
  ?seed:int ->
  ?root:int ->
  ?delay:string ->
  ?adversary:string ->
  ?loss:float ->
  ?dup:float ->
  ?fault_seed:int ->
  ?reliable:bool ->
  ?pulses:int ->
  ?strip:int ->
  ?k:int ->
  ?q:float ->
  ?domains:int ->
  ?trace:string ->
  ?check:bool ->
  string ->
  t
(** [make protocol] with CLI defaults: family ["random"], [n = 16],
    [w = 8], [seed = 1], [root = 0], no delay spec (= exact), no faults,
    [check = true]. *)

(** {2 Canonical serialisation} *)

val to_json : t -> string
(** One-line JSON object; field order and number formatting are fixed,
    [None] fields are omitted — so equal cells always produce equal
    text. *)

val of_json : string -> (t, string) result
(** Inverse of [to_json]; also accepts hand-written objects (missing
    optional fields take [make]'s defaults). [protocol] is required. A
    key [to_json] never writes, or a value of the wrong JSON type, is an
    [Error] naming the field — never a silent default. *)

val digest : t -> string
(** Hex digest of [to_json t]; the identity used by checkpoint
    manifests. *)

(** {2 Execution} *)

val graph : t -> Csap_graph.Graph.t
(** Build the cell's graph. Raises [Invalid_argument] on an unknown
    family. *)

(** Why a cell failed, classified for exit codes (see
    {!error_exit_code}). *)
type error =
  | Unknown_protocol of string
  | Bad_spec of string
      (** malformed delay spec / family / probability, or a cfg the
          protocol's capabilities reject *)
  | Invariant_failed of string  (** [check]ed run broke its oracle *)
  | Execution_error of string  (** unexpected exception during the run *)

val error_message : error -> string

val error_exit_code : error -> int
(** The CLI contract: [1] invariant failure, [2] unknown protocol,
    [3] malformed spec / invalid configuration, [4] unexpected
    execution error. *)

type outcome = {
  result : (Csap.Protocol.Outcome.t, error) result;
  wall_ms : float;  (** wall-clock of the execute (+ invariant) call *)
}

val prepare :
  ?graph:Csap_graph.Graph.t ->
  t ->
  (Csap.Protocol.entry * Csap.Protocol.Run.cfg, error) result
(** Every check {!run} makes before executing: look the protocol up
    ([Unknown_protocol]), resolve the delay model (a [--delay]-style
    spec: [exact], [near-zero], [race], [scaled:C], [seeded:N],
    [slow-edge:ID], or the [adversary] spec), build the graph and
    the fault plan, and {!Csap.Protocol.validate} the run configuration
    ([Bad_spec] for the rest). The spec errors come in this order: a
    [loss] or [dup] outside [[0, 1)], a malformed delay spec, a
    malformed adversary spec, an adversary set together with a delay,
    an unknown family, then [validate]'s checks (root range,
    capabilities). The CLI's [submit] spools a cell only when this
    passes. [graph], when given, must be [graph t]. *)

val run : ?graph:Csap_graph.Graph.t -> t -> outcome
(** {!prepare}, execute through the registry and (when [t.check]) check
    the invariant. Never raises: every failure is classified into
    [error]. [graph], when given, must be [graph t] — callers that
    already built it (to print its parameters) skip the rebuild. The
    cell's [trace] field, when set, is the prefix of the dumped
    traces. *)
