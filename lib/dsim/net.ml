type stats = {
  retransmissions : int;
  restarts : int;
}

let no_stats = { retransmissions = 0; restarts = 0 }

type 'm t = {
  graph : Csap_graph.Graph.t;
  send : src:int -> dst:int -> 'm -> unit;
  set_handler : int -> (src:int -> 'm -> unit) -> unit;
  schedule : int -> (unit -> unit) -> unit;
  now : int -> float;
  run : ?until:float -> ?max_events:int -> ?comm_budget:int -> unit -> int;
  metrics : unit -> Metrics.t;
  stats : unit -> stats;
}

(* The two sequential backends differ only in who owns the wire: the
   engine itself, or the shim in front of it. Both ignore the acting
   vertex of [schedule] and [now] — there is one clock. *)
let sequential eng ~send ~set_handler ~retransmissions =
  {
    graph = Engine.graph eng;
    send;
    set_handler;
    schedule = (fun _ f -> Engine.schedule eng ~delay:0.0 f);
    now = (fun _ -> Engine.now eng);
    run =
      (fun ?until ?max_events ?comm_budget () ->
        Engine.run ?until ?max_events ?comm_budget eng);
    metrics = (fun () -> Engine.metrics eng);
    stats =
      (fun () ->
        {
          retransmissions = retransmissions ();
          restarts = Engine.restarts eng;
        });
  }

let plain eng =
  sequential eng
    ~send:(fun ~src ~dst m -> Engine.send eng ~src ~dst m)
    ~set_handler:(fun v f -> Engine.set_handler eng v f)
    ~retransmissions:(fun () -> 0)

let shim eng =
  let r = Reliable.create eng in
  sequential eng
    ~send:(fun ~src ~dst m -> Reliable.send r ~src ~dst m)
    ~set_handler:(fun v f -> Reliable.set_handler r v f)
    ~retransmissions:(fun () -> Reliable.retransmissions r)

(* Every send, clock read and bootstrap goes through the context of the
   acting vertex's owning partition — the executing one, since a
   protocol acts only for the vertex whose handler is running. *)
let partitioned ?delay ~domains g =
  let eng = Pengine.create ?delay ~domains g in
  let ctx v = Pengine.ctx_of eng v in
  {
    graph = g;
    send = (fun ~src ~dst m -> Pengine.send (ctx src) ~src ~dst m);
    set_handler =
      (fun v f -> Pengine.set_handler eng v (fun _ ~src m -> f ~src m));
    schedule =
      (fun v f -> Pengine.schedule eng ~vertex:v ~delay:0.0 (fun _ -> f ()));
    now = (fun v -> Pengine.now (ctx v));
    run =
      (fun ?until ?max_events ?comm_budget () ->
        if until <> None || max_events <> None || comm_budget <> None then
          invalid_arg
            "Net.run: a partitioned run takes no until/max_events/comm_budget";
        Pengine.run eng);
    metrics = (fun () -> Pengine.metrics eng);
    (* No shim and no fault plan: nothing is resent or restarts. *)
    stats = (fun () -> no_stats);
  }

let make ?reliable:(r = false) ?(domains = 1) ?delay ?faults g =
  if domains < 1 then invalid_arg "Net.make: domains >= 1 required";
  if domains > 1 then begin
    if r then invalid_arg "Net.make: domains > 1 excludes the reliable shim";
    if faults <> None then
      invalid_arg "Net.make: domains > 1 excludes fault plans";
    partitioned ?delay ~domains g
  end
  else if r then shim (Engine.create ?delay ?faults g)
  else plain (Engine.create ?delay ?faults g)
