type t = {
  mutable messages : int;
  mutable weighted_comm : int;
  mutable completion_time : float;
  mutable last_delivery_time : float;
  mutable events : int;
}

let create () =
  {
    messages = 0;
    weighted_comm = 0;
    completion_time = 0.0;
    last_delivery_time = 0.0;
    events = 0;
  }

let reset t =
  t.messages <- 0;
  t.weighted_comm <- 0;
  t.completion_time <- 0.0;
  t.last_delivery_time <- 0.0;
  t.events <- 0

let add_send t ~w =
  t.messages <- t.messages + 1;
  t.weighted_comm <- t.weighted_comm + w

let pp ppf t =
  Format.fprintf ppf "msgs=%d comm=%d time=%.2f events=%d" t.messages
    t.weighted_comm t.last_delivery_time t.events
