module Net = Csap_dsim.Net
module G = Csap_graph.Graph
module SP = Csap_dsim.Sync_protocol

type ('s, 'm) outcome = {
  states : 's array;
  deliveries : 'm SP.delivery list;
  pulses : int;
  proto_comm : int;
  ack_comm : int;
  control_comm : int;
  total : Measures.t;
  amortized_comm : float;
  amortized_time : float;
  retransmissions : int;
}

(* ------------------------------------------------------------------ *)
(* Partition of a level graph into low-radius clusters ([Awe85a]).     *)
(* ------------------------------------------------------------------ *)

module Partition = struct
  type t = {
    cluster_of : int array;
    parent : int array;
    children : int list array;
    root_of : int array;
    preferred : (int * int) list;
    k : int;
    hop_radius : int;
  }

  let build g ~edges ~k =
    if k < 2 then invalid_arg "Partition.build: k >= 2 required";
    let n = G.n g in
    (* Adjacency restricted to the level edges. *)
    let adj = Array.make n [] in
    List.iter
      (fun id ->
        let e = G.edge g id in
        adj.(e.G.u) <- e.G.v :: adj.(e.G.u);
        adj.(e.G.v) <- e.G.u :: adj.(e.G.v))
      edges;
    let cluster_of = Array.make n (-1) in
    let parent = Array.make n (-1) in
    let children = Array.make n [] in
    let roots = ref [] in
    let cluster_count = ref 0 in
    let hop_radius = ref 0 in
    for seed = 0 to n - 1 do
      if cluster_of.(seed) < 0 then begin
        let cid = !cluster_count in
        incr cluster_count;
        roots := seed :: !roots;
        cluster_of.(seed) <- cid;
        (* Grow BFS layers while the next layer multiplies the size by k. *)
        let members = ref [ seed ] in
        let frontier = ref [ seed ] in
        let depth = ref 0 in
        let continue = ref true in
        while !continue do
          let layer =
            List.concat_map
              (fun v ->
                List.filter (fun u -> cluster_of.(u) < 0) adj.(v))
              !frontier
            |> List.sort_uniq compare
            |> List.filter (fun u -> cluster_of.(u) < 0)
          in
          let size = List.length !members in
          if layer <> [] && List.length layer + size >= k * size then begin
            (* Absorb the layer, hooking each vertex to a frontier parent. *)
            List.iter
              (fun u ->
                cluster_of.(u) <- cid;
                let p =
                  List.find (fun x -> List.mem x !frontier) adj.(u)
                in
                parent.(u) <- p;
                children.(p) <- u :: children.(p))
              layer;
            members := layer @ !members;
            frontier := layer;
            incr depth
          end
          else continue := false
        done;
        if !depth > !hop_radius then hop_radius := !depth
      end
    done;
    let root_of = Array.make !cluster_count (-1) in
    List.iter (fun r -> root_of.(cluster_of.(r)) <- r) !roots;
    (* One preferred edge per adjacent cluster pair. *)
    let pref_tbl = Hashtbl.create 16 in
    List.iter
      (fun id ->
        let e = G.edge g id in
        let a = cluster_of.(e.G.u) and b = cluster_of.(e.G.v) in
        if a <> b then begin
          let key = (min a b, max a b) in
          if not (Hashtbl.mem pref_tbl key) then
            Hashtbl.replace pref_tbl key (e.G.u, e.G.v)
        end)
      edges;
    let preferred = Hashtbl.fold (fun _ e acc -> e :: acc) pref_tbl [] in
    {
      cluster_of;
      parent;
      children;
      root_of;
      preferred;
      k;
      hop_radius = !hop_radius;
    }
end

(* ------------------------------------------------------------------ *)
(* Shared protocol-execution core with acknowledgement-based safety.   *)
(* ------------------------------------------------------------------ *)

type 'm wire =
  | Proto of { sent_at : int; payload : 'm }
  | Ack of { sent_at : int }
  | Ctrl of int
(* Control payloads are encoded as ints by each synchronizer:
   see the [encode_*] functions below. *)

type ('s, 'm) core = {
  net : 'm wire Net.t;
  g : G.t;
  protocol : ('s, 'm) SP.t;
  pulses : int;
  check_in_synch : bool;
  states : 's array;
  executed : int array;  (* highest pulse executed per vertex *)
  buffer : (int * int, (int * 'm) list) Hashtbl.t;  (* (v, arrival) -> msgs *)
  outstanding : (int * int, int) Hashtbl.t;  (* (v, pulse) -> unacked *)
  outstanding_lvl : (int * int * int, int) Hashtbl.t;
      (* (v, pulse, level) -> unacked *)
  mutable deliveries : 'm SP.delivery list;
  mutable proto_comm : int;
  mutable ack_comm : int;
  cleared : int -> int -> bool;  (* may vertex execute pulse p? *)
  mutable on_executed : int -> int -> unit;
  mutable on_safe : int -> int -> unit;  (* all sends of (v, pulse) acked *)
  mutable on_safe_level : int -> pulse:int -> level:int -> unit;
}

let level_of_weight w =
  let rec go l x = if x <= 1 then l else go (l + 1) (x / 2) in
  go 0 w

let tbl_add tbl key delta =
  let v = (try Hashtbl.find tbl key with Not_found -> 0) + delta in
  if v = 0 then Hashtbl.remove tbl key else Hashtbl.replace tbl key v;
  v

let make_core ?(check_in_synch = false) net g protocol ~pulses ~cleared =
  let n = G.n g in
  {
    net;
    g;
    protocol;
    pulses;
    check_in_synch;
    states = Array.init n (fun v -> protocol.SP.init g ~me:v);
    executed = Array.make n (-1);
    buffer = Hashtbl.create 64;
    outstanding = Hashtbl.create 64;
    outstanding_lvl = Hashtbl.create 64;
    deliveries = [];
    proto_comm = 0;
    ack_comm = 0;
    cleared;
    on_executed = (fun _ _ -> ());
    on_safe = (fun _ _ -> ());
    on_safe_level = (fun _ ~pulse:_ ~level:_ -> ());
  }

(* Execute as many pulses as the synchronizer has cleared. *)
let rec core_try_execute c v =
  let p = c.executed.(v) + 1 in
  if p <= c.pulses && (p = 0 || c.cleared v p) then begin
    let inbox =
      (try Hashtbl.find c.buffer (v, p) with Not_found -> [])
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    Hashtbl.remove c.buffer (v, p);
    let state, sends =
      c.protocol.SP.on_pulse c.g ~me:v ~pulse:p ~inbox c.states.(v)
    in
    c.states.(v) <- state;
    c.executed.(v) <- p;
    (* Transmit, tracking outstanding acknowledgements. *)
    let levels_touched = ref [] in
    List.iter
      (fun (dst, payload) ->
        match G.edge_between c.g v dst with
        | None -> invalid_arg "Synchronizer: send to non-neighbour"
        | Some (w, _) ->
          if c.check_in_synch && p mod w <> 0 then
            invalid_arg "Synchronizer: protocol not in synch with network";
          c.proto_comm <- c.proto_comm + w;
          let level = level_of_weight w in
          ignore (tbl_add c.outstanding (v, p) 1);
          ignore (tbl_add c.outstanding_lvl (v, p, level) 1);
          if not (List.mem level !levels_touched) then
            levels_touched := level :: !levels_touched;
          c.net.Net.send ~src:v ~dst (Proto { sent_at = p; payload }))
      sends;
    ignore !levels_touched;
    c.on_executed v p;
    (* A pulse with no sends is immediately safe. *)
    if not (Hashtbl.mem c.outstanding (v, p)) then c.on_safe v p;
    core_try_execute c v
  end

let core_handle_proto c ~me ~src ~sent_at payload =
  let w =
    match G.edge_between c.g me src with
    | Some (w, _) -> w
    | None -> assert false
  in
  let arrival = sent_at + w in
  c.deliveries <-
    { SP.pulse = arrival; src; dst = me; payload } :: c.deliveries;
  if arrival <= c.pulses then begin
    let old = try Hashtbl.find c.buffer (me, arrival) with Not_found -> [] in
    Hashtbl.replace c.buffer (me, arrival) ((src, payload) :: old)
  end;
  c.ack_comm <- c.ack_comm + w;
  c.net.Net.send ~src:me ~dst:src (Ack { sent_at })

let core_handle_ack c ~me ~src ~sent_at =
  let w =
    match G.edge_between c.g me src with
    | Some (w, _) -> w
    | None -> assert false
  in
  let level = level_of_weight w in
  let left = tbl_add c.outstanding (me, sent_at) (-1) in
  assert (left >= 0);
  let left_lvl = tbl_add c.outstanding_lvl (me, sent_at, level) (-1) in
  assert (left_lvl >= 0);
  if left = 0 then c.on_safe me sent_at;
  if left_lvl = 0 then c.on_safe_level me ~pulse:sent_at ~level

let finish ?comm_budget c start_all =
  c.net.Net.schedule 0 (fun () ->
      for v = 0 to G.n c.g - 1 do
        start_all v
      done);
  ignore (c.net.Net.run ?comm_budget ());
  let total = Measures.of_metrics (c.net.Net.metrics ()) in
  (* On a reliable transport, the shim's own traffic (transport-level
     acks and retransmissions) lands in [control_comm] alongside the
     synchronizer's control messages: it is overhead the protocol did
     not ask for. *)
  let control_comm = total.Measures.comm - c.proto_comm - c.ack_comm in
  {
    states = c.states;
    deliveries = List.rev c.deliveries;
    pulses = c.pulses;
    proto_comm = c.proto_comm;
    ack_comm = c.ack_comm;
    control_comm;
    total;
    amortized_comm =
      float_of_int (c.ack_comm + control_comm)
      /. float_of_int (max 1 c.pulses);
    amortized_time = total.Measures.time /. float_of_int (max 1 c.pulses);
    retransmissions = c.net.Net.retransmissions ();
  }

(* ------------------------------------------------------------------ *)
(* Synchronizer alpha_w: SAFE exchanged with every neighbour.          *)
(* ------------------------------------------------------------------ *)

(* Ctrl encoding for alpha/beta: the pulse number. *)

let run_alpha ?delay ?faults ?reliable g protocol ~pulses =
  let n = G.n g in
  let net = Net.make ?reliable ?delay ?faults g in
  (* heard.(v).(i): highest pulse for which neighbour i declared safe. *)
  let heard = Array.init n (fun v -> Array.make (G.degree g v) (-1)) in
  let neighbor_index = Array.init n (fun _ -> Hashtbl.create 4) in
  for v = 0 to n - 1 do
    let i = ref 0 in
    G.iter_neighbors g v (fun u _ _ ->
        Hashtbl.replace neighbor_index.(v) u !i;
        incr i)
  done;
  let cleared v p =
    p = 0 || Array.for_all (fun h -> h >= p - 1) heard.(v)
  in
  let core = make_core net g protocol ~pulses ~cleared in
  core.on_safe <-
    (fun v p ->
      G.iter_neighbors g v (fun u _ _ -> net.Net.send ~src:v ~dst:u (Ctrl p)));
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src msg ->
        match msg with
        | Proto { sent_at; payload } ->
          core_handle_proto core ~me:v ~src ~sent_at payload
        | Ack { sent_at } ->
          core_handle_ack core ~me:v ~src ~sent_at
        | Ctrl p ->
          let i = Hashtbl.find neighbor_index.(v) src in
          heard.(v).(i) <- max heard.(v).(i) p;
          core_try_execute core v)
  done;
  finish core (fun v -> core_try_execute core v)

(* ------------------------------------------------------------------ *)
(* Synchronizer beta_w: one global tree with a leader.                 *)
(* Ctrl encoding: 2p = Ready(p) upward, 2p+1 = Go(p) downward.         *)
(* ------------------------------------------------------------------ *)

let run_beta ?delay ?faults ?reliable ?tree g protocol ~pulses =
  let tree =
    match tree with
    | Some t -> t
    | None ->
      let _, center = Csap_graph.Paths.radius_and_center g in
      (Slt.build g ~root:center).Slt.tree
  in
  let n = G.n g in
  let root = Csap_graph.Tree.root tree in
  let net = Net.make ?reliable ?delay ?faults g in
  let n_children =
    Array.init n (fun v -> List.length (Csap_graph.Tree.children tree v))
  in
  (* ready.(v): count of children subtree-safe reports for current pulse;
     self_safe.(v): highest pulse v itself is safe for; released: highest
     pulse the root has released. *)
  let ready = Array.make n 0 in
  let self_safe = Array.make n (-1) in
  let go = Array.make n 0 in
  let cleared v p = p <= go.(v) in
  let core = make_core net g protocol ~pulses ~cleared in
  let subtree_check v p =
    if self_safe.(v) >= p && ready.(v) = n_children.(v) then begin
      ready.(v) <- 0;
      if v = root then begin
        if p < pulses then begin
          List.iter
            (fun c -> net.Net.send ~src:root ~dst:c (Ctrl ((2 * (p + 1)) + 1)))
            (Csap_graph.Tree.children tree root);
          go.(root) <- p + 1;
          core_try_execute core root
        end
      end
      else
        match Csap_graph.Tree.parent tree v with
        | Some (parent, _) -> net.Net.send ~src:v ~dst:parent (Ctrl (2 * p))
        | None -> assert false
    end
  in
  core.on_safe <-
    (fun v p ->
      self_safe.(v) <- max self_safe.(v) p;
      subtree_check v p);
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src msg ->
        match msg with
        | Proto { sent_at; payload } ->
          core_handle_proto core ~me:v ~src ~sent_at payload
        | Ack { sent_at } -> core_handle_ack core ~me:v ~src ~sent_at
        | Ctrl enc ->
          if enc mod 2 = 0 then begin
            (* Ready(p) from a child. *)
            let p = enc / 2 in
            ready.(v) <- ready.(v) + 1;
            subtree_check v p
          end
          else begin
            (* Go(p) from the parent. *)
            let p = enc / 2 in
            go.(v) <- max go.(v) p;
            List.iter
              (fun c -> net.Net.send ~src:v ~dst:c (Ctrl ((2 * p) + 1)))
              (Csap_graph.Tree.children tree v);
            core_try_execute core v
          end)
  done;
  finish core (fun v -> core_try_execute core v)

(* ------------------------------------------------------------------ *)
(* Synchronizer gamma_w: per-weight-class cluster partitions.          *)
(* ------------------------------------------------------------------ *)

(* Ctrl encoding for gamma_w: kind + level + round packed as
   ((round * 64 + level) * 8 + kind), kinds 0..4. *)

type gamma_kind =
  | KSafe
  | KCsafe
  | KPsafe
  | KReady
  | KGo

let encode_gamma kind ~level ~round =
  let k =
    match kind with
    | KSafe -> 0
    | KCsafe -> 1
    | KPsafe -> 2
    | KReady -> 3
    | KGo -> 4
  in
  (((round * 64) + level) * 8) + k

let decode_gamma enc =
  let k = enc mod 8 in
  let rest = enc / 8 in
  let level = rest mod 64 in
  let round = rest / 64 in
  let kind =
    match k with
    | 0 -> KSafe
    | 1 -> KCsafe
    | 2 -> KPsafe
    | 3 -> KReady
    | 4 -> KGo
    | _ -> assert false
  in
  (kind, level, round)

let run_gamma_w ?delay ?faults ?reliable ?comm_budget ?(k = 2)
    ?(levels = `Partition) g protocol ~pulses =
  if not (Normalize.is_normalized g) then
    invalid_arg "Synchronizer.run_gamma_w: network not normalized";
  let n = G.n g in
  let w_max = G.max_weight g in
  let max_level = level_of_weight w_max in
  (* Level structures. [`Partition]: E_l = edges of weight exactly 2^l
     (each edge cleaned at its own class). [`Divisible]: the paper's
     literal E_l = edges of weight divisible by 2^l - heavier edges are
     redundantly cleaned at every lower level too (the ablation bench SY
     measures the difference). *)
  let level_edges =
    Array.init (max_level + 1) (fun l ->
        Array.to_list (Array.mapi (fun id (e : G.edge) -> (id, e)) (G.edges g))
        |> List.filter_map (fun (id, (e : G.edge)) ->
               let le = level_of_weight e.w in
               let keep =
                 match levels with
                 | `Partition -> le = l
                 | `Divisible -> le >= l
               in
               if keep then Some id else None))
  in
  let parts =
    Array.map (fun edges -> Partition.build g ~edges ~k) level_edges
  in
  (* Preferred-edge incidences per level and vertex. *)
  let pref_nbrs = Array.init (max_level + 1) (fun _ -> Array.make n []) in
  Array.iteri
    (fun l (part : Partition.t) ->
      List.iter
        (fun (a, b) ->
          pref_nbrs.(l).(a) <- b :: pref_nbrs.(l).(a);
          pref_nbrs.(l).(b) <- a :: pref_nbrs.(l).(b))
        part.Partition.preferred)
    parts;
  (* A vertex participates in level l only if its cluster has edges or
     preferred neighbours; otherwise clearance is trivial. *)
  let trivial = Array.make_matrix (max_level + 1) n true in
  Array.iteri
    (fun l part ->
      List.iter
        (fun id ->
          let e = G.edge g id in
          trivial.(l).(e.G.u) <- false;
          trivial.(l).(e.G.v) <- false)
        level_edges.(l);
      (* Members of non-singleton clusters participate too. *)
      Array.iteri
        (fun v p -> if p >= 0 then trivial.(l).(v) <- false)
        part.Partition.parent)
    parts;
  let net = Net.make ?reliable ?delay ?faults g in
  (* go.(v).(l): latest round of level l released at v. *)
  let go = Array.init n (fun _ -> Array.make (max_level + 1) 0) in
  let cleared v p =
    let ok = ref true in
    for l = 0 to max_level do
      if p mod (1 lsl l) = 0 then begin
        let round = p / (1 lsl l) in
        if (not trivial.(l).(v)) && go.(v).(l) < round then ok := false
      end
    done;
    !ok
  in
  let core =
    make_core ~check_in_synch:true net g protocol ~pulses ~cleared
  in
  (* Round bookkeeping, keyed by (level, round, vertex). *)
  let safe_got = Hashtbl.create 64 in
  let ready_got = Hashtbl.create 64 in
  let csafe_got = Hashtbl.create 64 in
  let psafe_got = Hashtbl.create 64 in
  let released = Array.init (max_level + 1) (fun l ->
      Array.make (Array.length parts.(l).Partition.root_of) 0)
  in
  let max_round l = (pulses / (1 lsl l)) + 1 in
  let send_ctrl v dst kind ~level ~round =
    net.Net.send ~src:v ~dst (Ctrl (encode_gamma kind ~level ~round))
  in
  (* Forward declarations via references to break the mutual recursion
     between the safety cascade and the release cascade. *)
  let rec safe_contribution l r v =
    (* v (or a child subtree) contributes to round-r safety in its
       cluster. Count: children + 1 for v's own safety. *)
    let part = parts.(l) in
    let needed = List.length part.Partition.children.(v) + 1 in
    let have = tbl_add safe_got (l, r, v) 1 in
    assert (have <= needed);
    if have = needed then begin
      if part.Partition.parent.(v) < 0 then cluster_safe l r v
      else send_ctrl v part.Partition.parent.(v) KSafe ~level:l ~round:r
    end

  and cluster_safe l r leader_v =
    (* The whole cluster is safe: broadcast Csafe down the cluster tree. *)
    csafe_cascade l r leader_v

  and csafe_cascade l r v =
    Hashtbl.replace csafe_got (l, r, v) ();
    List.iter
      (fun c -> send_ctrl v c KCsafe ~level:l ~round:r)
      parts.(l).Partition.children.(v);
    (* Notify neighbouring clusters over incident preferred edges. *)
    List.iter
      (fun u -> send_ctrl v u KPsafe ~level:l ~round:r)
      pref_nbrs.(l).(v);
    ready_check l r v

  and ready_check l r v =
    (* v is self-ready when its cluster is safe and every incident
       preferred edge has delivered the neighbour cluster's safety. *)
    let self_ready =
      Hashtbl.mem csafe_got (l, r, v)
      && (try Hashtbl.find psafe_got (l, r, v) with Not_found -> 0)
         = List.length pref_nbrs.(l).(v)
      && not (Hashtbl.mem ready_got (l, r, -1 - v))
      (* sentinel: self-contribution already counted *)
    in
    if self_ready then begin
      Hashtbl.replace ready_got (l, r, -1 - v) 0;
      ready_contribution l r v
    end

  and ready_contribution l r v =
    let part = parts.(l) in
    let needed = List.length part.Partition.children.(v) + 1 in
    let have = tbl_add ready_got (l, r, v) 1 in
    assert (have <= needed);
    if have = needed then begin
      if part.Partition.parent.(v) < 0 then begin
        (* Leader: release round r of level l. *)
        let cid = part.Partition.cluster_of.(v) in
        assert (released.(l).(cid) = r - 1 || released.(l).(cid) >= r);
        if released.(l).(cid) < r then begin
          released.(l).(cid) <- r;
          go_cascade l r v
        end
      end
      else send_ctrl v part.Partition.parent.(v) KReady ~level:l ~round:r
    end

  and go_cascade l r v =
    go.(v).(l) <- max go.(v).(l) r;
    List.iter
      (fun c -> send_ctrl v c KGo ~level:l ~round:r)
      parts.(l).Partition.children.(v);
    core_try_execute core v
  in
  (* Hook the core: when a vertex's level-l sends of pulse p are acked (or
     there were none), it contributes to the safety of round p/2^l + 1.
     In [`Divisible] mode, level-l safety additionally needs every heavier
     batch of the same pulse acked, and a cleared heavy batch can unlock
     several lower levels at once. *)
  let contributed = Hashtbl.create 64 in
  let heavier_clear v p l =
    match levels with
    | `Partition -> true
    | `Divisible ->
      let ok = ref true in
      for j = l to max_level do
        if Hashtbl.mem core.outstanding_lvl (v, p, j) then ok := false
      done;
      !ok
  in
  let try_contribute v p l =
    if
      l <= max_level
      && (not trivial.(l).(v))
      && p mod (1 lsl l) = 0
      && (not (Hashtbl.mem core.outstanding_lvl (v, p, l)))
      && heavier_clear v p l
      && not (Hashtbl.mem contributed (v, p, l))
    then begin
      let r = (p / (1 lsl l)) + 1 in
      if r <= max_round l then begin
        Hashtbl.replace contributed (v, p, l) ();
        safe_contribution l r v
      end
    end
  in
  core.on_safe_level <-
    (fun v ~pulse ~level ->
      match levels with
      | `Partition -> try_contribute v pulse level
      | `Divisible ->
        (* A cleared batch may complete the safety of every level below. *)
        for l = 0 to min level max_level do
          try_contribute v pulse l
        done);
  core.on_executed <-
    (fun v p ->
      (* Trivial levels need no safety protocol; non-trivial levels with no
         outstanding sends at this pulse become safe instantly. *)
      for l = 0 to max_level do
        try_contribute v p l
      done);
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src msg ->
        match msg with
        | Proto { sent_at; payload } ->
          core_handle_proto core ~me:v ~src ~sent_at payload
        | Ack { sent_at } -> core_handle_ack core ~me:v ~src ~sent_at
        | Ctrl enc ->
          let kind, level, round = decode_gamma enc in
          (match kind with
          | KSafe -> safe_contribution level round v
          | KCsafe -> csafe_cascade level round v
          | KPsafe ->
            ignore (tbl_add psafe_got (level, round, v) 1);
            ready_check level round v
          | KReady -> ready_contribution level round v
          | KGo -> go_cascade level round v))
  done;
  finish ?comm_budget core (fun v -> core_try_execute core v)

let run_transformed ?delay ?faults ?reliable ?comm_budget ?k g protocol
    ~pulses =
  let g' = Normalize.graph g in
  let p' = Normalize.protocol ~original:g protocol in
  let total_pulses =
    Normalize.pulses_needed ~original_pulses:pulses ~w_max:(G.max_weight g)
  in
  let outcome =
    run_gamma_w ?delay ?faults ?reliable ?comm_budget ?k g' p'
      ~pulses:total_pulses
  in
  let inner = Array.map Normalize.inner_state outcome.states in
  (inner, outcome)
