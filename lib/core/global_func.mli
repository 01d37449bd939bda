(** Optimal computation of global functions (Sections 1.4.1 and 2).

    A {e symmetric compact} function [GS86] is determined by an associative,
    commutative combiner [g]: the value on any argument subset has a compact
    representation, and
    [f(x1..xn) = g(f(x1..xk), f(x_k+1..xn))]. Examples: sum, max, min, and,
    or, xor.

    The protocol runs a convergecast followed by a broadcast on a spanning
    tree: every tree edge carries exactly one message in each direction, so
    communication is [2 w(T)] and time is at most [2 height(T)]. Run on a
    shallow-light tree this meets the paper's optimal [O(V)] communication
    and [O(D)] time (Corollary 2.3); the matching lower bounds are Theorem
    2.1. *)

(** A symmetric compact function: a commutative, associative combiner. *)
type 'a spec = {
  name : string;
  combine : 'a -> 'a -> 'a;
}

val sum : int spec
val max_value : int spec
val min_value : int spec
val xor : int spec
val logical_and : bool spec
val logical_or : bool spec

type 'a result = {
  outputs : 'a array;  (** the function value, produced at every vertex *)
  measures : Measures.t;
  transport : Csap_dsim.Net.stats;
}

(** [run ?spec g ~tree ~values f] computes [f(values)] over [tree] (a
    spanning tree of [g]); every vertex outputs the result. The
    convergecast and broadcast run over [Net.make ?spec g]. *)
val run :
  ?spec:Csap_dsim.Net.spec ->
  Csap_graph.Graph.t ->
  tree:Csap_graph.Tree.t ->
  values:'a array ->
  'a spec ->
  'a result

(** [run_optimal ?spec ?q g ~root ~values f] builds an SLT and runs on
    it — the paper's upper bound construction (Corollary 2.3). *)
val run_optimal :
  ?spec:Csap_dsim.Net.spec ->
  ?q:float ->
  Csap_graph.Graph.t ->
  root:int ->
  values:'a array ->
  'a spec ->
  'a result

(** [broadcast ?spec ?q g ~source ~payload] — the paper's observation that
    broadcasting is a symmetric compact function: the payload at [source],
    a neutral value elsewhere, combined with [max]. Every vertex outputs
    [payload] at the optimal [O(V)] communication / [O(D)] time. *)
val broadcast :
  ?spec:Csap_dsim.Net.spec ->
  ?q:float ->
  Csap_graph.Graph.t ->
  source:int ->
  payload:int ->
  int result
