module G = Csap_graph.Graph

type 'm packet =
  | Data of { seqno : int; payload : 'm }
  | Ack of { cum : int }

type 'm t = {
  eng : 'm packet Engine.t;
  g : G.t;
  rto_factor : float;
  max_rto_factor : float;
  (* Directed-link state, indexed by slot = 2 * edge_id + dir (dir = 0
     when the sender is the edge's smaller endpoint) — the engine's own
     directed-edge indexing. Sender side: *)
  next_seq : int array;
  unacked : (int * 'm) Queue.t array;  (* (seqno, payload), seqno order *)
  timer_armed : bool array;
  timer_epoch : int array;  (* bumped to invalidate in-flight timers *)
  rto : float array;  (* current timeout; grows by doubling, capped *)
  (* Receiver side: *)
  expected : int array;  (* next in-order seqno on this incoming link *)
  ooo : (int * int, 'm) Hashtbl.t;  (* (slot, seqno) -> buffered payload *)
  (* Application layer: *)
  handlers : (src:int -> 'm -> unit) option array;
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable delivered : int;
}

let slot_of t ~src ~dst =
  let id = G.edge_id_between t.g src dst in
  if id < 0 then
    invalid_arg
      (Printf.sprintf "Reliable.send: no edge between %d and %d" src dst);
  let e = G.edge t.g id in
  (2 * id) + (if src = e.G.u then 0 else 1)

let weight_of_slot t slot = (G.edge t.g (slot / 2)).G.w

let base_rto t slot = t.rto_factor *. float_of_int (weight_of_slot t slot)

(* Sender endpoint of a directed slot. *)
let sender_of_slot t slot =
  let e = G.edge t.g (slot / 2) in
  if slot land 1 = 0 then e.G.u else e.G.v

let receiver_of_slot t slot =
  let e = G.edge t.g (slot / 2) in
  if slot land 1 = 0 then e.G.v else e.G.u

let retransmissions t = t.retransmissions
let acks_sent t = t.acks_sent
let delivered t = t.delivered
let engine t = t.eng

let in_flight t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.unacked

(* Arm the retransmission timer for [slot] unless already armed. The
   closure validates its epoch at fire time, so stale timers (after a
   crash-restart re-arm) are no-ops. *)
let rec ensure_timer t slot =
  if not t.timer_armed.(slot) then begin
    t.timer_armed.(slot) <- true;
    let epoch = t.timer_epoch.(slot) in
    Engine.schedule t.eng ~delay:t.rto.(slot) (fun () ->
        on_timer t slot epoch)
  end

and on_timer t slot epoch =
  if epoch = t.timer_epoch.(slot) then begin
    t.timer_armed.(slot) <- false;
    if not (Queue.is_empty t.unacked.(slot)) then begin
      let src = sender_of_slot t slot in
      if Engine.is_down t.eng src then
        (* The sender is crashed: its volatile timers are lost. The
           restart handler re-arms every link with unacked data. *)
        ()
      else begin
        let dst = receiver_of_slot t slot in
        Queue.iter
          (fun (seqno, payload) ->
            t.retransmissions <- t.retransmissions + 1;
            Engine.send t.eng ~src ~dst (Data { seqno; payload }))
          t.unacked.(slot);
        t.rto.(slot) <-
          Float.min
            (2.0 *. t.rto.(slot))
            (t.max_rto_factor *. float_of_int (weight_of_slot t slot));
        ensure_timer t slot
      end
    end
  end

let send t ~src ~dst payload =
  let slot = slot_of t ~src ~dst in
  let seqno = t.next_seq.(slot) in
  t.next_seq.(slot) <- seqno + 1;
  Queue.push (seqno, payload) t.unacked.(slot);
  Engine.send t.eng ~src ~dst (Data { seqno; payload });
  ensure_timer t slot

let deliver_app t ~me ~src payload =
  match t.handlers.(me) with
  | Some f ->
    t.delivered <- t.delivered + 1;
    f ~src payload
  | None ->
    failwith
      (Printf.sprintf "Reliable: no handler at vertex %d (message from %d)"
         me src)

let handle_data t ~me ~src seqno payload =
  let slot = slot_of t ~src ~dst:me in
  if seqno = t.expected.(slot) then begin
    (* In order: deliver, then drain any buffered successors. *)
    t.expected.(slot) <- seqno + 1;
    deliver_app t ~me ~src payload;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt t.ooo (slot, t.expected.(slot)) with
      | Some p ->
        Hashtbl.remove t.ooo (slot, t.expected.(slot));
        t.expected.(slot) <- t.expected.(slot) + 1;
        deliver_app t ~me ~src p
      | None -> continue := false
    done
  end
  else if seqno > t.expected.(slot) then begin
    (* A gap (the missing seqnos were lost): buffer until they arrive.
       Duplicates of a buffered packet are absorbed by the replace. *)
    Hashtbl.replace t.ooo (slot, seqno) payload
  end;
  (* seqno < expected: a duplicate of an already-delivered packet — the
     cumulative ack below tells the sender to stop resending it. *)
  t.acks_sent <- t.acks_sent + 1;
  Engine.send t.eng ~src:me ~dst:src (Ack { cum = t.expected.(slot) - 1 })

let handle_ack t ~me ~src cum =
  (* [me] is the sender of the acked stream: the slot is me -> src. *)
  let slot = slot_of t ~src:me ~dst:src in
  let popped = ref false in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.unacked.(slot) with
    | Some (seqno, _) when seqno <= cum ->
      ignore (Queue.pop t.unacked.(slot));
      popped := true
    | _ -> continue := false
  done;
  (* Progress: restart the backoff from the link's base timeout. *)
  if !popped then t.rto.(slot) <- base_rto t slot

let set_handler t v f = t.handlers.(v) <- Some f

(* Crash-restart recovery (stable-storage model, see DESIGN.md §11): the
   shim's link state survives the crash; what died with the node are its
   in-flight messages and pending timers. On restart, every outgoing link
   with unacked data gets its backoff reset and a fresh timer (stale ones
   are invalidated via the epoch). *)
let handle_restart t v =
  G.iter_neighbors t.g v (fun u _ _ ->
      let slot = slot_of t ~src:v ~dst:u in
      t.timer_epoch.(slot) <- t.timer_epoch.(slot) + 1;
      t.timer_armed.(slot) <- false;
      if not (Queue.is_empty t.unacked.(slot)) then begin
        t.rto.(slot) <- base_rto t slot;
        ensure_timer t slot
      end)

let create ?(rto = 3.0) ?(max_rto = 64.0) eng =
  if not (rto > 0.0 && rto < infinity) then
    invalid_arg "Reliable.create: rto must be finite and positive";
  if not (max_rto >= rto) then
    invalid_arg "Reliable.create: max_rto must be >= rto";
  let g = Engine.graph eng in
  let slots = 2 * G.m g in
  let t =
    {
      eng;
      g;
      rto_factor = rto;
      max_rto_factor = max_rto;
      next_seq = Array.make slots 0;
      unacked = Array.init slots (fun _ -> Queue.create ());
      timer_armed = Array.make slots false;
      timer_epoch = Array.make slots 0;
      rto = Array.make slots 0.0;
      expected = Array.make slots 0;
      ooo = Hashtbl.create 64;
      handlers = Array.make (G.n g) None;
      retransmissions = 0;
      acks_sent = 0;
      delivered = 0;
    }
  in
  for slot = 0 to slots - 1 do
    t.rto.(slot) <- base_rto t slot
  done;
  for v = 0 to G.n g - 1 do
    Engine.set_handler eng v (fun ~src pkt ->
        match pkt with
        | Data { seqno; payload } -> handle_data t ~me:v ~src seqno payload
        | Ack { cum } -> handle_ack t ~me:v ~src cum);
    Engine.set_restart_handler eng v (fun () -> handle_restart t v)
  done;
  t
