(** Weighted cost accounting for protocol executions (Section 1.3).

    [weighted_comm] is the paper's communication complexity: the sum of
    [w(e)] over every message sent. [last_delivery_time] is the physical
    time of the last message delivery — the paper's time complexity, which
    counts message propagation only: a local timer that fires after the
    last delivery ([completion_time] covers those too) costs no time,
    exactly as local computation is free in the model. *)

type t = {
  mutable messages : int;  (** number of messages sent *)
  mutable weighted_comm : int;  (** sum of w(e) over messages *)
  mutable completion_time : float;
      (** time of the last event processed, local timers included *)
  mutable last_delivery_time : float;
      (** time of the last message delivery; what {!Csap.Measures} reads *)
  mutable events : int;  (** events processed by the engine *)
}

val create : unit -> t
val reset : t -> unit

(** [add_send t ~w] accounts for one message on an edge of weight [w]. *)
val add_send : t -> w:int -> unit

val pp : Format.formatter -> t -> unit
