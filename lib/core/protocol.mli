(** The unified protocol registry.

    Every message-passing protocol in the library is wrapped as a
    first-class module implementing {!S}: one {!Run.cfg} describes a run
    (graph, root, delay model, fault plan, reliable shim, knobs), one
    {!Outcome.t} describes its result (paper measures, transport
    bookkeeping, a protocol-specific payload), and one [invariant]
    checks the outcome against the sequential oracles (Dijkstra,
    Kruskal, the synchronous reference execution, causality).

    The registry is the single wiring point for the benchmark harness,
    the schedule/fault sweeps ({!Csap_sched.Sched_explore}) and the CLI:
    adding a protocol here makes it runnable, sweepable and checkable
    everywhere at once. *)

(** Run configuration shared by every protocol. *)
module Run : sig
  type cfg = {
    graph : Csap_graph.Graph.t;
    root : int;  (** source / root vertex; ignored when not needed *)
    delay : Csap_dsim.Delay.t option;  (** [None] = {!Csap_dsim.Delay.Exact} *)
    adversary : Csap_dsim.Adversary.t option;
        (** schedule adversary; an oblivious one replaces [delay] (the
            two knobs conflict), an adaptive one is installed ambiently
            around the run (requires {!caps.supports_adaptive}) *)
    faults : Csap_dsim.Fault.plan option;
    reliable : bool;  (** route through the {!Csap_dsim.Reliable} shim *)
    trace : string option;
        (** dump engine traces as [<prefix>--<name>--<i>.jsonl] *)
    pulses : int option;  (** clock / synchronizer protocols *)
    strip : int option;  (** SPT_recur strip depth *)
    k : int option;  (** gamma_w cluster parameter *)
    q : float option;  (** SLT balance parameter *)
    domains : int option;
        (** [> 1]: run on the partitioned engine ({!Csap_dsim.Pengine})
            across that many OCaml domains; requires
            {!caps.supports_domains} *)
  }

  (** Smart constructor; [root] defaults to [0], [reliable] to [false],
      every knob to the protocol's own default. *)
  val make :
    ?root:int ->
    ?delay:Csap_dsim.Delay.t ->
    ?adversary:Csap_dsim.Adversary.t ->
    ?faults:Csap_dsim.Fault.plan ->
    ?reliable:bool ->
    ?trace:string ->
    ?pulses:int ->
    ?strip:int ->
    ?k:int ->
    ?q:float ->
    ?domains:int ->
    Csap_graph.Graph.t ->
    cfg

  (** The effective delay oracle: the uniform deterministic default
      ({!Csap_dsim.Delay.Exact}) when none was given. *)
  val delay : cfg -> Csap_dsim.Delay.t
end

(** Uniform run outcome. *)
module Outcome : sig
  (** Protocol-specific payload, extensible for out-of-tree protocols. *)
  type payload = ..

  type payload +=
    | No_payload
    | Spanning_tree of Csap_graph.Tree.t
    | Flood_wave of { tree : Csap_graph.Tree.t; arrival : float array }
    | Dfs_walk of { tree : Csap_graph.Tree.t; est_c : int; est_r : int }
    | Clock_pulses of Clock_sync.result
    | Sync_states of {
        source : int;
        states : Spt_synch.state array;
        pulses : int;
        proto_comm : int;
      }
    | Outputs of int array
    | Gn_bounds of Lower_bound.gn_run

  type t = {
    protocol : string;
    measures : Measures.t;  (** the paper's (comm, time, messages) *)
    retransmissions : int;  (** reliable-shim retransmissions *)
    restarts : int;  (** crash-restart events observed *)
    payload : payload;
    info : (string * string) list;  (** protocol-specific scalars *)
  }

  (** The constructed tree, when the payload carries one. *)
  val tree : t -> Csap_graph.Tree.t option
end

type category =
  | Connectivity
  | Mst
  | Spt
  | Slt
  | Global
  | Clock
  | Synchronizer
  | Bound

val category_name : category -> string

(** Capability flags consulted by {!execute} and the sweep builders. *)
type caps = {
  needs_root : bool;  (** validates [cfg.root] against [0, n) *)
  supports_faults : bool;  (** accepts a raw {!Csap_dsim.Fault.plan} *)
  supports_reliable : bool;  (** accepts [reliable = true] *)
  synchronous_only : bool;
      (** a synchronizer driving a synchronous protocol *)
  fixed_family : bool;  (** builds its own graph from size parameters *)
  supports_domains : bool;
      (** passes [cfg.domains] to {!Csap_dsim.Net.make}, running on the
          partitioned engine when [> 1] *)
  supports_adaptive : bool;
      (** accepts an adaptive {!Csap_dsim.Adversary.t} (true for every
          protocol that actually consults its delay model; the
          lower-bound family ignores schedules and rejects it) *)
}

val default_caps : caps
(** root required; faults, reliable and adaptive adversaries supported;
    nothing else set *)

val allowed_vars : category -> Bound.var list
(** The parameters a claim in this category may mention: the global
    graph parameters for Connectivity–Global, additionally the
    neighbour distance [d] for Clock/Synchronizer, and only
    [n], [E], [V] for the lower-bound family. *)

(** A machine-checked cost claim: the paper's bound for one metric as
    a symbolic {!Bound.expr}, checked against measured sweeps by the
    BD bench figure and [csap_cli bounds --check]. *)
module Claim : sig
  type metric = Comm | Time

  val metric_name : metric -> string

  type t = {
    metric : metric;
    bound : Bound.expr;  (** canonical *)
    regime : string option;
        (** the capability regime the claim holds in, when narrower
            than "any clean run" *)
  }

  (** Parse the bound from {!Bound.of_string} syntax; raises
      [Invalid_argument] on a malformed expression. *)
  val comm : ?regime:string -> string -> t

  val time : ?regime:string -> string -> t
  val to_string : t -> string
end

(** One registered protocol. *)
module type S = sig
  val name : string
  val summary : string
  val category : category
  val caps : caps

  (** The paper's claimed cost bounds, as symbolic expressions over the
      measured parameters. Never empty: at least a communication claim;
      a time claim unless the protocol reports no meaningful time. *)
  val claimed : Claim.t list

  (** Raw runner; called by {!execute} after uniform validation. *)
  val run : Run.cfg -> Outcome.t

  (** Check the outcome against the sequential oracles. *)
  val invariant : Run.cfg -> Outcome.t -> (unit, string) result
end

type entry = (module S)

(** Every protocol in the library, in paper order. *)
val registry : entry list

val names : unit -> string list
val find : string -> entry option

(** Raises [Invalid_argument] on an unknown name. *)
val find_exn : string -> entry

(** Uniform validation: root range ([Invalid_argument] with
    ["<name>: root <r> out of range [0, <n>)"]), fault/reliable/domains/
    adversary support against {!caps}. Capability rejections involving a
    knob name it uniformly — ["<name>: <knob>: <reason>"] for the
    [domains] and [adversary] knobs. [domains > 1] additionally excludes
    faults, the reliable shim, traces, order-dependent delay models —
    the effective one, so an oblivious adversary's delay counts — and
    adaptive adversaries (order-dependent by construction); [adversary]
    conflicts with an explicit [delay]. *)
val validate : entry -> Run.cfg -> unit

(** [execute entry cfg] validates, runs, and (when [cfg.trace] is set)
    collects and dumps engine traces. An oblivious [cfg.adversary] is
    folded into the delay model; an adaptive one is installed via
    {!Csap_dsim.Adversary.with_ambient} for the scope of the run, so the
    protocol's internally built engines consult it — and, with
    [cfg.trace] set, the dumped traces carry its replayable
    {!Csap_dsim.Trace.Decision} records. *)
val execute : entry -> Run.cfg -> Outcome.t

(** [run entry graph] — {!execute} with an inline {!Run.make}. *)
val run :
  ?root:int ->
  ?delay:Csap_dsim.Delay.t ->
  ?adversary:Csap_dsim.Adversary.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?reliable:bool ->
  ?trace:string ->
  ?pulses:int ->
  ?strip:int ->
  ?k:int ->
  ?q:float ->
  ?domains:int ->
  entry ->
  Csap_graph.Graph.t ->
  Outcome.t
