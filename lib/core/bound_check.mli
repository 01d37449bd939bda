(** The bound checker's sweep harness (figure BD, [csap_cli bounds]).

    For every registry entry this module fixes a deterministic graph
    family sweep, runs the protocol once per instance (clean run,
    exact delays), and fits the measured communication and time
    against each of the entry's {!Protocol.Claim.t} expressions with
    {!Bound.check}. Bench figure BD, the [bounds] CLI subcommand and
    the test suite all go through the same [measure]/[check_entry]
    path, so their reported measures are bit-identical. *)

(** One sweep instance: the graph's measured parameters and the
    protocol's measured costs on it. *)
type sample = {
  label : string;  (** family instance, e.g. ["grid 6x6"] *)
  params : Csap_graph.Params.t;
  measures : Measures.t;
}

type claim_verdict = {
  claim : Protocol.Claim.t;
  verdict : Bound.verdict;
}

(** The adversary regime the measures were taken under. [Clean] is one
    exact-delay run per instance — the gating fit. The worst-case
    regimes take per-metric maxima over a battery ([Sched_worst]: the
    oblivious schedule battery; [Adaptive_worst]: the adaptive
    built-ins, {!Csap_dsim.Delay.greedy_commax} and
    {!Csap_dsim.Delay.time_stretcher}) — the sharper check of the
    paper's worst-case claims, reported but not gated because the
    batteries are heuristic under-approximations of the true sup. *)
type regime = Clean | Sched_worst | Adaptive_worst

val regime_name : regime -> string
(** ["clean"], ["sched-worst"], ["adaptive-worst"]. *)

type report = {
  name : string;  (** protocol name *)
  family : string;
  regime : regime;
  samples : sample list;
  claims : claim_verdict list;
}

val sweep : Protocol.entry -> string * (string * Csap_graph.Graph.t) list
(** The family label and the labelled instances figure BD sweeps this
    entry over — deterministic, sized to the entry's own cost. *)

val measure : Protocol.entry -> Csap_graph.Graph.t -> sample
(** One clean {!Protocol.execute} run with default knobs; the sample's
    parameters are those of the graph the protocol actually measured
    (for [fixed_family] entries, the rebuilt family, not the size
    carrier passed in). *)

val check_entry : ?slope_tol:float -> Protocol.entry -> report
(** Sweep, measure, and fit every declared claim ([Clean] regime). *)

val check_entry_regime :
  ?slope_tol:float -> regime:regime -> Protocol.entry -> report
(** Like {!check_entry} but measuring under the regime's adversary
    battery, taking per-metric maxima per instance. Worst-case regimes
    sweep the small grid tier (the battery multiplies per-instance
    cost). *)

val regime_roster : unit -> Protocol.entry list
(** The worst-case roster: one cheap registry target per trade-off
    family (flood, GHS, both SPT constructions, synchronizer alpha). *)

val failures : report -> claim_verdict list
(** The claims whose verdict is not [within]. *)

val pp_report : Format.formatter -> report -> unit
