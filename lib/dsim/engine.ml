(* The Boxed queue constructor is alert-flagged for everyone else (it is
   a test oracle, not a production path); the engine itself must of
   course still implement it. *)
[@@@alert "-boxed_oracle"]

type 'msg action =
  | Deliver of { src : int; dst : int; payload : 'msg; epoch : int }
    (* [epoch] is the receiver's crash epoch at send time: a crash bumps
       the epoch, so deliveries pending at the crash arrive stale and are
       dropped — without scanning the event queue at crash time. *)
  | Local of (unit -> unit)

(* Boxed event records, used only by the historical [Boxed] queue. *)
type 'msg event = {
  time : float;
  seq : int;
  action : 'msg action;
}

type event_queue =
  | Packed
  | Boxed

type 'msg queue =
  | Q_packed of 'msg Event_queue.t
  | Q_boxed of 'msg event Csap_graph.Heap.t

type 'msg t = {
  g : Csap_graph.Graph.t;
  delay : Delay.t;
  queue : 'msg queue;
  handlers : (src:int -> 'msg -> unit) option array;
  metrics : Metrics.t;
  traffic : int array;
  (* Last scheduled delivery time per directed edge, to keep links FIFO.
     Index: 2 * edge_id + direction (0 when src = edge.u). *)
  last_delivery : float array;
  (* Messages sent so far per directed edge — the [nth] fed to delay
     oracles and trace records. *)
  send_counts : int array;
  (* Messages delivered so far per directed edge; only advanced while a
     trace is attached (FIFO links make the nth delivery the nth send). *)
  deliver_counts : int array;
  trace : Trace.t option;
  (* The simulation clock, in a one-slot float array rather than a
     mutable float field: a float stored into a mixed record is boxed
     (one minor allocation per store), a float-array write is not — and
     the clock is written once per event. [fscratch] holds the delay
     sample for the same reason: cold consumers (trace records, error
     messages) read it back from the slot, so the hot path's sample
     never escapes into a boxed argument. *)
  clock : float array;
  fscratch : float array;
  mutable seq : int;
  (* Fault layer; [faults = None] keeps the historical reliable-network
     semantics bit-for-bit (down/epoch stay all-false/zero). *)
  faults : Fault.plan option;
  down : bool array;
  epoch : int array;
  restart_handlers : (unit -> unit) option array;
  mutable restarts : int;
  (* [delay]'s adaptive model, cached so the send path branches on one
     word. [adaptive = None] (every oblivious model) keeps the send path
     exactly on the historical zero-allocation route: the observation
     state below is then never read and only the [inflight] maintenance
     sites — each a one-word match on [t.adaptive] — are crossed. *)
  adaptive : Delay.adaptive option;
  obs : Delay.Obs.t;
  (* Deliveries currently queued per directed edge (2 * id + dir);
     maintained only while an adaptive model is installed. *)
  inflight : int array;
}

(* Explicit monomorphic compares: polymorphic [compare] on a float walks
   the boxed representation through the generic C path (and orders NaN
   inconsistently with [Float.compare]'s total order). The event times
   here are validated non-NaN, so this order agrees with the packed
   queue's strict [(<)] order. *)
let compare_events a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

(* [Float.max] without the cross-module call (which boxes its result)
   and without the NaN/signed-zero cases: every float on these paths is
   validated non-NaN and non-negative. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

(* Local (timer / crash) events; setup-path pushes, not the hot path. *)
let push_local t time f =
  (match t.queue with
  | Q_packed q -> Event_queue.push_local q ~time ~seq:t.seq f
  | Q_boxed q -> Csap_graph.Heap.add q { time; seq = t.seq; action = Local f });
  t.seq <- t.seq + 1

(* Crash-restart events run as ordinary local events: at [at] the vertex
   goes down and its epoch advances (dropping every pending delivery); at
   [restart] it comes back up, the restart is counted, and its restart
   handler — looked up at fire time, so handlers installed after [create]
   are seen — runs. Installed by [create], so they take the lowest
   sequence numbers and win same-time ties against protocol bootstraps. *)
let install_faults t = function
  | None -> ()
  | Some plan ->
    let n = Array.length t.down in
    List.iter
      (fun { Fault.vertex = v; at; restart } ->
        if v < 0 || v >= n then
          invalid_arg
            (Printf.sprintf "Engine: crash vertex %d out of range" v);
        push_local t at (fun () ->
            t.down.(v) <- true;
            t.epoch.(v) <- t.epoch.(v) + 1);
        push_local t restart (fun () ->
            t.down.(v) <- false;
            t.restarts <- t.restarts + 1;
            match t.restart_handlers.(v) with
            | Some f -> f ()
            | None -> ()))
      plan.Fault.crashes

let create ?(delay = Delay.Exact) ?faults ?(event_queue = Packed) g =
  let m = Csap_graph.Graph.m g in
  let queue =
    match event_queue with
    | Packed ->
      (* Pre-sized from the edge count (capped — growth is geometric
         and amortised-free anyway) so steady-state floods never
         grow the heap mid-run. *)
      Q_packed (Event_queue.create ~capacity:(max 16 (min (2 * m) 65536)) ())
    | Boxed -> Q_boxed (Csap_graph.Heap.create ~cmp:compare_events)
  in
  let clock = Array.make 1 0.0 in
  let inflight = Array.make (2 * m) 0 in
  let t =
    {
      g;
      delay;
      queue;
      handlers = Array.make (Csap_graph.Graph.n g) None;
      metrics = Metrics.create ();
      traffic = Array.make m 0;
      last_delivery = Array.make (2 * m) 0.0;
      send_counts = Array.make (2 * m) 0;
      deliver_counts = Array.make (2 * m) 0;
      trace = Trace.register ();
      clock;
      fscratch = Array.make 1 0.0;
      seq = 0;
      faults;
      down = Array.make (Csap_graph.Graph.n g) false;
      epoch = Array.make (Csap_graph.Graph.n g) 0;
      restart_handlers = Array.make (Csap_graph.Graph.n g) None;
      restarts = 0;
      adaptive = (match delay with Delay.Adaptive a -> Some a | _ -> None);
      obs = Delay.Obs.make ~m ~clock ~inflight;
      inflight;
    }
  in
  install_faults t faults;
  t

let graph t = t.g
let now t = t.clock.(0)

let trace t = t.trace

let set_handler t v f = t.handlers.(v) <- Some f

let set_restart_handler t v f = t.restart_handlers.(v) <- Some f
let is_down t v = t.down.(v)
let restarts t = t.restarts

let queue_empty t =
  match t.queue with
  | Q_packed q -> Event_queue.is_empty q
  | Q_boxed q -> Csap_graph.Heap.is_empty q

let trace_send_kind t kind ~id ~dir ~nth ~src ~dst ~delay =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.add tr
      {
        Trace.kind;
        time = t.clock.(0);
        seq = t.seq;
        edge = id;
        dir;
        nth;
        src;
        dst;
        delay;
      }

(* Send-path trace record reading the delay back from the scratch slot:
   passing the sample as a float argument would force it boxed on the
   (trace-off) hot path too. *)
let[@inline never] trace_send_scratch t kind ~id ~dir ~nth ~src ~dst =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.add tr
      {
        Trace.kind;
        time = t.clock.(0);
        seq = t.seq;
        edge = id;
        dir;
        nth;
        src;
        dst;
        delay = t.fscratch.(0);
      }

let[@inline never] invalid_sample t id =
  invalid_arg
    (Printf.sprintf
       "Engine.send: delay model produced invalid delay %g on edge %d"
       t.fscratch.(0) id)

(* Deliver push on either queue backend; the cold paths (duplicates) use
   this, the hot path inlines the packed case to keep [arrival]
   unboxed. *)
let push_deliver_any t ~time ~src ~dst payload =
  (match t.queue with
  | Q_packed q ->
    Event_queue.push_deliver q ~time ~seq:t.seq ~src ~dst
      ~epoch:t.epoch.(dst) payload
  | Q_boxed q ->
    Csap_graph.Heap.add q
      {
        time;
        seq = t.seq;
        action = Deliver { src; dst; payload; epoch = t.epoch.(dst) };
      });
  t.seq <- t.seq + 1

(* Adaptive consult, out of line: the decision procedure reads the
   shared Obs view and its float return is boxed on the way back into
   the scratch slot — the price of adaptivity, paid only when
   [t.adaptive] is [Some]. *)
let[@inline never] adaptive_sample t a ~id ~dir ~nth ~w =
  t.fscratch.(0) <- a.Delay.next_delay t.obs ~edge_id:id ~dir ~nth ~w

(* Observation upkeep at the delivery-enqueue site; only under an
   adaptive model (the counters are dead weight otherwise). *)
let[@inline never] note_enqueue t ~slot =
  t.inflight.(slot) <- t.inflight.(slot) + 1

(* Observation upkeep at the delivery-pop site: the in-flight counter
   comes down, even for crash-dropped deliveries — they left the queue.
   Runs before the handler, so the handler's own sends observe
   up-to-date state. *)
let[@inline never] note_delivery t ~src ~dst =
  let id = Csap_graph.Graph.edge_id_between t.g src dst in
  let e = Csap_graph.Graph.edge t.g id in
  let dir = if src = e.Csap_graph.Graph.u then 0 else 1 in
  let slot = (2 * id) + dir in
  t.inflight.(slot) <- t.inflight.(slot) - 1

let send t ~src ~dst payload =
  (* The per-message hot path: an O(1)-amortised indexed lookup (no
     allocation) instead of scanning the adjacency list of [src]. *)
  let id = Csap_graph.Graph.edge_id_between t.g src dst in
  if id < 0 then
    invalid_arg
      (Printf.sprintf "Engine.send: no edge between %d and %d" src dst);
  let e = Csap_graph.Graph.edge t.g id in
  let w = e.Csap_graph.Graph.w in
  let dir = if src = e.Csap_graph.Graph.u then 0 else 1 in
  let slot = (2 * id) + dir in
  let nth = t.send_counts.(slot) in
  t.send_counts.(slot) <- nth + 1;
  let disp =
    match t.faults with
    | None -> Fault.Pass
    | Some plan ->
      (* A down sender executes nothing, so a send reaching here (a stale
         timer closure) transmits nothing and pays nothing. *)
      if t.down.(src) then Fault.Drop
      else plan.Fault.disposition ~edge_id:id ~dir ~nth ~now:t.clock.(0)
  in
  match disp with
  | Fault.Drop ->
    if not t.down.(src) then begin
      (* The transmission happened and is paid for; it just never
         arrives. No delay is sampled — the message has no arrival. *)
      Metrics.add_send t.metrics ~w;
      t.traffic.(id) <- t.traffic.(id) + 1
    end;
    trace_send_kind t Trace.Dropped ~id ~dir ~nth ~src ~dst ~delay:0.0
  | Fault.Pass | Fault.Duplicate _ -> (
    Metrics.add_send t.metrics ~w;
    t.traffic.(id) <- t.traffic.(id) + 1;
    (match t.adaptive with
    | None -> Delay.sample_into t.delay ~edge_id:id ~dir ~nth ~w t.fscratch
    | Some a -> adaptive_sample t a ~id ~dir ~nth ~w);
    let d = Array.unsafe_get t.fscratch 0 in
    (* Validate the sample once, at the send site: NaN fails every
       comparison (it would corrupt the heap's strict (<) order), infinities
       stall the clock, negatives run time backwards. *)
    if not (d >= 0.0 && d < infinity) then invalid_sample t id;
    (* The adaptive decision is recorded before its Send twin: the
       decision records alone form a replayable oblivious schedule. *)
    (match t.adaptive with
    | None -> ()
    | Some _ -> trace_send_scratch t Trace.Decision ~id ~dir ~nth ~src ~dst);
    trace_send_scratch t Trace.Send ~id ~dir ~nth ~src ~dst;
    let arrival =
      fmax (Array.unsafe_get t.clock 0 +. d) (Array.unsafe_get t.last_delivery slot)
    in
    Array.unsafe_set t.last_delivery slot arrival;
    (match t.queue with
    | Q_packed q ->
      (* Zero heap words: six unboxed row writes into the SOA queue. The
         arrival crosses into the queue via the FIFO-stamp column just
         written — a float argument would be boxed ([-opaque] blocks
         cross-module inlining). *)
      Event_queue.push_deliver_from q ~times:t.last_delivery ~at:slot
        ~seq:t.seq ~src ~dst ~epoch:(Array.unsafe_get t.epoch dst) payload
    | Q_boxed q ->
      (* The oracle path re-reads the FIFO stamp (= [arrival]) so the
         hot path's unboxed arrival never escapes into the record. *)
      Csap_graph.Heap.add q
        {
          time = t.last_delivery.(slot);
          seq = t.seq;
          action = Deliver { src; dst; payload; epoch = t.epoch.(dst) };
        });
    t.seq <- t.seq + 1;
    (match t.adaptive with
    | None -> ()
    | Some _ -> note_enqueue t ~slot);
    match disp with
    | Fault.Duplicate u ->
      (* The network's extra copy: same identity, its own delay (the
         plan's fraction of the weight), FIFO-clamped like any arrival,
         free of communication cost. *)
      let d2 = u *. float_of_int w in
      if not (d2 >= 0.0 && d2 < infinity) then
        invalid_arg
          (Printf.sprintf
             "Engine.send: fault plan produced invalid duplicate delay %g \
              on edge %d"
             d2 id);
      trace_send_kind t Trace.Dup ~id ~dir ~nth ~src ~dst ~delay:d2;
      let arrival2 = Float.max (t.clock.(0) +. d2) t.last_delivery.(slot) in
      t.last_delivery.(slot) <- arrival2;
      push_deliver_any t ~time:arrival2 ~src ~dst payload;
      (match t.adaptive with
      | None -> ()
      | Some _ -> note_enqueue t ~slot)
    | _ -> ())

let schedule t ~delay f =
  if not (delay >= 0.0 && delay < infinity) then
    invalid_arg
      (Printf.sprintf "Engine.schedule: invalid delay %g (must be finite, >= 0)"
         delay);
  push_local t (t.clock.(0) +. delay) f

let quiescent t = queue_empty t

let[@inline never] no_handler src dst =
  failwith
    (Printf.sprintf "Engine: no handler at vertex %d (message sent from %d)"
       dst src)

(* ---- the boxed oracle loop --------------------------------------------- *)
(* Kept verbatim in spirit from the historical generic loop; it dispatches
   boxed [action] values and allocates freely — the QCheck identity suite
   runs it against the packed loop below. *)

let dispatch t = function
  | Local f -> f ()
  | Deliver { src; dst; payload; epoch = _ } -> (
    match t.handlers.(dst) with
    | Some f -> f ~src payload
    | None -> no_handler src dst)

(* True when a popped delivery is lost to a crash: the receiver is down
   right now, or crashed (and so shed its pending deliveries) after the
   message was sent. *)
let delivery_dropped t = function
  | Deliver { dst; epoch; _ } -> t.down.(dst) || epoch <> t.epoch.(dst)
  | Local _ -> false

let trace_deliver t tr seq ~dropped ~src ~dst =
  let id = Csap_graph.Graph.edge_id_between t.g src dst in
  let e = Csap_graph.Graph.edge t.g id in
  let dir = if src = e.Csap_graph.Graph.u then 0 else 1 in
  let slot = (2 * id) + dir in
  let nth =
    if dropped then -1
    else begin
      let nth = t.deliver_counts.(slot) in
      t.deliver_counts.(slot) <- nth + 1;
      nth
    end
  in
  Trace.add tr
    {
      Trace.kind = (if dropped then Trace.Dropped else Trace.Deliver);
      time = t.clock.(0);
      seq;
      edge = id;
      dir;
      nth;
      src;
      dst;
      delay = 0.0;
    }

let trace_local t tr seq =
  Trace.add tr
    {
      Trace.kind = Trace.Local;
      time = t.clock.(0);
      seq;
      edge = -1;
      dir = -1;
      nth = -1;
      src = -1;
      dst = -1;
      delay = 0.0;
    }

let record_dispatch t tr seq ~dropped action =
  match action with
  | Deliver { src; dst; _ } -> trace_deliver t tr seq ~dropped ~src ~dst
  | Local _ -> trace_local t tr seq

let run_boxed ~until ~max_events ~comm_budget t q =
  let processed = ref 0 in
  let continue = ref true in
  let limit_reached = ref false in
  while
    !continue && !processed < max_events
    && t.metrics.Metrics.weighted_comm < comm_budget
  do
    if Csap_graph.Heap.is_empty q then begin
      limit_reached := true;
      continue := false
    end
    else
      let ev =
        match Csap_graph.Heap.peek_min q with
        | Some e -> e
        | None -> assert false
      in
      match until with
      | Some limit when ev.time > limit ->
        limit_reached := true;
        continue := false
      | _ ->
        ignore (Csap_graph.Heap.pop_min q);
        t.clock.(0) <- Float.max t.clock.(0) ev.time;
        let dropped = delivery_dropped t ev.action in
        (match (t.adaptive, ev.action) with
        | Some _, Deliver { src; dst; _ } -> note_delivery t ~src ~dst
        | _ -> ());
        (match t.trace with
        | Some tr -> record_dispatch t tr ev.seq ~dropped ev.action
        | None -> ());
        if not dropped then dispatch t ev.action;
        incr processed;
        t.metrics.Metrics.events <- t.metrics.Metrics.events + 1;
        t.metrics.Metrics.completion_time <- t.clock.(0);
        (match ev.action with
        | Deliver _ when not dropped ->
          t.metrics.Metrics.last_delivery_time <- t.clock.(0)
        | Deliver _ | Local _ -> ())
  done;
  !limit_reached

(* ---- the packed hot loop ------------------------------------------------ *)
(* Specialised to the SOA queue: the minimum is read field-by-field and
   dropped in place, so processing a delivery allocates nothing — no
   popped event value, no action match, no boxed clock store. The two
   per-event float metrics accumulate in local float refs (flat
   one-field float records, unboxed stores) and flush into the mixed
   [Metrics.t] record once, after the loop. *)

let run_packed ~until ~max_events ~comm_budget t q =
  let processed = ref 0 in
  let continue = ref true in
  let limit_reached = ref false in
  let events = ref t.metrics.Metrics.events in
  (* The two per-event float metrics accumulate in a flat float array —
     NOT [float ref]s: ['a ref] at [float] is a generic one-field
     record, so every [:=] would box the float. Slot 0 is
     completion_time, slot 1 last_delivery_time; flushed into the mixed
     [Metrics.t] record once, after the loop. *)
  let facc =
    [|
      t.metrics.Metrics.completion_time; t.metrics.Metrics.last_delivery_time;
    |]
  in
  let flush () =
    t.metrics.Metrics.events <- !events;
    t.metrics.Metrics.completion_time <- facc.(0);
    t.metrics.Metrics.last_delivery_time <- facc.(1)
  in
  (try
     while
       !continue && !processed < max_events
       && t.metrics.Metrics.weighted_comm < comm_budget
     do
       if Event_queue.is_empty q then begin
         limit_reached := true;
         continue := false
       end
       else begin
         (* Unboxed read of the minimum's time straight off the SOA
            column ([min_time]'s float return would box under
            [-opaque]). Fetched every iteration: a handler's sends can
            grow — and so replace — the column array. *)
         let time = Array.unsafe_get (Event_queue.times q) 0 in
         let beyond =
           match until with Some limit -> time > limit | None -> false
         in
         if beyond then begin
           limit_reached := true;
           continue := false
         end
         else begin
           let seq =
             match t.trace with Some _ -> Event_queue.min_seq q | None -> 0
           in
           if Event_queue.min_is_local q then begin
             let f = Event_queue.min_local q in
             Event_queue.drop_min q;
             t.clock.(0) <- fmax (Array.unsafe_get t.clock 0) time;
             (match t.trace with
             | Some tr -> trace_local t tr seq
             | None -> ());
             f ();
             incr processed;
             events := !events + 1;
             Array.unsafe_set facc 0 (Array.unsafe_get t.clock 0)
           end
           else begin
             let src = Event_queue.min_src q in
             let dst = Event_queue.min_dst q in
             let epoch = Event_queue.min_epoch q in
             let payload = Event_queue.min_payload q in
             Event_queue.drop_min q;
             t.clock.(0) <- fmax (Array.unsafe_get t.clock 0) time;
             let dropped =
               Array.unsafe_get t.down dst
               || epoch <> Array.unsafe_get t.epoch dst
             in
             (match t.adaptive with
             | None -> ()
             | Some _ -> note_delivery t ~src ~dst);
             (match t.trace with
             | Some tr -> trace_deliver t tr seq ~dropped ~src ~dst
             | None -> ());
             if not dropped then begin
               match Array.unsafe_get t.handlers dst with
               | Some f -> f ~src payload
               | None -> no_handler src dst
             end;
             incr processed;
             events := !events + 1;
             Array.unsafe_set facc 0 (Array.unsafe_get t.clock 0);
             if not dropped then
               Array.unsafe_set facc 1 (Array.unsafe_get t.clock 0)
           end
         end
       end
     done
   with e ->
     flush ();
     raise e);
  flush ();
  !limit_reached

let run ?until ?(max_events = max_int) ?(comm_budget = max_int) t =
  let events0 = t.metrics.Metrics.events in
  let limit_reached =
    match t.queue with
    | Q_packed q -> run_packed ~until ~max_events ~comm_budget t q
    | Q_boxed q -> run_boxed ~until ~max_events ~comm_budget t q
  in
  (* Sliced runs compose: after [run ~until:t1] the clock sits at [t1]
     even on quiescence (so relative timers scheduled between slices land
     where a continuous run puts them), and a stale [until < now] never
     moves the clock backwards. Runs cut short by [max_events] or
     [comm_budget] stop at the last processed event instead. *)
  (match until with
  | Some limit when limit_reached -> t.clock.(0) <- Float.max t.clock.(0) limit
  | _ -> ());
  t.metrics.Metrics.events - events0

let metrics t = t.metrics

let edge_traffic t = Array.copy t.traffic
