module Net = Csap_dsim.Net
module G = Csap_graph.Graph
module TC = Csap_cover.Tree_cover

type result = {
  pulses : int;
  pulse_times : float array array;
  max_pulse_delay : float;
  avg_pulse_delay : float;
  comm_per_pulse : float;
  measures : Measures.t;
  transport : Net.stats;
}

let summarise g net ~pulses pulse_times =
  let n = G.n g in
  let metrics = net.Net.metrics () in
  let max_delay = ref 0.0 and sum = ref 0.0 and count = ref 0 in
  for v = 0 to n - 1 do
    for p = 1 to pulses do
      let d = pulse_times.(v).(p) -. pulse_times.(v).(p - 1) in
      assert (d >= 0.0);
      if d > !max_delay then max_delay := d;
      sum := !sum +. d;
      incr count
    done
  done;
  {
    pulses;
    pulse_times;
    max_pulse_delay = !max_delay;
    avg_pulse_delay = (if !count = 0 then 0.0 else !sum /. float_of_int !count);
    comm_per_pulse =
      float_of_int metrics.Csap_dsim.Metrics.weighted_comm
      /. float_of_int (max 1 pulses);
    measures = Measures.of_metrics metrics;
    transport = net.Net.stats ();
  }

(* ------------------------------------------------------------------ *)
(* Synchronizer alpha*: direct neighbour exchange.                     *)
(* ------------------------------------------------------------------ *)

type alpha_msg = Pulse of int

let run_alpha ?delay ?faults ?reliable g ~pulses =
  let n = G.n g in
  let net = Net.make ?reliable ?delay ?faults g in
  let pulse_times = Array.make_matrix n (pulses + 1) nan in
  let current = Array.make n (-1) in
  (* heard.(v).(i): highest pulse number received from v's i-th
     neighbour in CSR row order ([G.neighbor_index]). *)
  let heard = Array.init n (fun v -> Array.make (G.degree g v) (-1)) in
  let rec try_pulse v =
    let p = current.(v) + 1 in
    if p <= pulses then
      if p = 0 || Array.for_all (fun h -> h >= p - 1) heard.(v) then begin
        current.(v) <- p;
        pulse_times.(v).(p) <- net.Net.now v;
        if p < pulses then
          G.iter_neighbors g v (fun u _ _ ->
              net.Net.send ~src:v ~dst:u (Pulse p));
        try_pulse v
      end
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src (Pulse p) ->
        let i = G.neighbor_index g v src in
        heard.(v).(i) <- max heard.(v).(i) p;
        try_pulse v)
  done;
  net.Net.schedule 0 (fun () ->
      for v = 0 to n - 1 do
        try_pulse v
      done);
  ignore (net.Net.run ());
  summarise g net ~pulses pulse_times

(* ------------------------------------------------------------------ *)
(* Synchronizer beta*: one global tree with a leader.                  *)
(* ------------------------------------------------------------------ *)

type beta_msg =
  | Ready of int
  | Go of int

let run_beta ?delay ?faults ?reliable g ~pulses =
  let tree = Slt.centre_tree g in
  let n = G.n g in
  let root = Csap_graph.Tree.root tree in
  let net = Net.make ?reliable ?delay ?faults g in
  let pulse_times = Array.make_matrix n (pulses + 1) nan in
  let n_children =
    Array.init n (fun v -> List.length (Csap_graph.Tree.children tree v))
  in
  let ready_count = Array.make n 0 in
  (* Subtree of [v] is done with pulse [p]: report up, or release the next
     pulse from the root. *)
  let rec ready_up v p =
    ready_count.(v) <- 0;
    if v = root then begin
      if p < pulses then begin
        List.iter
          (fun c -> net.Net.send ~src:root ~dst:c (Go (p + 1)))
          (Csap_graph.Tree.children tree root);
        do_pulse root (p + 1)
      end
    end
    else
      match Csap_graph.Tree.parent tree v with
      | Some (parent, _) -> net.Net.send ~src:v ~dst:parent (Ready p)
      | None -> assert false

  and do_pulse v p =
    pulse_times.(v).(p) <- net.Net.now v;
    (* A pure clock pulse completes instantly; leaves are ready at once. *)
    if ready_count.(v) = n_children.(v) then ready_up v p
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src msg ->
        ignore src;
        match msg with
        | Ready p ->
          ready_count.(v) <- ready_count.(v) + 1;
          if
            ready_count.(v) = n_children.(v)
            && not (Float.is_nan pulse_times.(v).(p))
          then ready_up v p
        | Go p ->
          List.iter
            (fun c -> net.Net.send ~src:v ~dst:c (Go p))
            (Csap_graph.Tree.children tree v);
          do_pulse v p)
  done;
  net.Net.schedule 0 (fun () ->
      for v = 0 to n - 1 do
        do_pulse v 0
      done);
  ignore (net.Net.run ());
  summarise g net ~pulses pulse_times

(* ------------------------------------------------------------------ *)
(* Synchronizer gamma*: beta inside each cover tree, alpha among trees. *)
(* ------------------------------------------------------------------ *)

type gamma_msg =
  | TReady of { tree : int; pulse : int }
  | TDone of { tree : int; pulse : int }
  | TNeighborDone of { src_tree : int; dst_tree : int; pulse : int }
  | TGo of { tree : int; pulse : int }

let run_gamma ?delay ?faults ?reliable ?(neighbor_phase = true) g ~pulses =
  let cover = TC.build g in
  let n = G.n g in
  let trees = Array.of_list cover.TC.trees in
  let tcount = Array.length trees in
  let children = Array.map TC.children trees in
  let tree_children tid v =
    match Hashtbl.find_opt children.(tid) v with
    | Some cs -> cs
    | None -> []
  in
  let member_trees = Array.make n [] in
  Array.iteri
    (fun tid (tr : TC.cluster_tree) ->
      List.iter
        (fun v -> member_trees.(v) <- tid :: member_trees.(v))
        tr.TC.members)
    trees;
  (* For each ordered pair of trees sharing a vertex, a designated relay
     vertex (the smallest shared one). *)
  let relay = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    List.iter
      (fun a ->
        List.iter
          (fun b -> if a <> b then Hashtbl.replace relay (a, b) v)
          member_trees.(v))
      member_trees.(v)
  done;
  let neighbor_count = Array.make tcount 0 in
  Hashtbl.iter
    (fun (_, b) _ -> neighbor_count.(b) <- neighbor_count.(b) + 1)
    relay;
  let net = Net.make ?reliable ?delay ?faults g in
  let pulse_times = Array.make_matrix n (pulses + 1) nan in
  let current = Array.make n (-1) in
  (* go.(v).(tid): the latest pulse this vertex knows tree [tid] released.
     Pulse 0 is released unconditionally. *)
  let go = Array.make_matrix n tcount 0 in
  (* Convergecast progress per (tree, pulse, vertex): children heard from,
     plus one for the vertex's own pulse. *)
  let ready_tbl = Hashtbl.create 64 in
  let incr_ready tid p v =
    let k = (tid, p, v) in
    let c = try Hashtbl.find ready_tbl k with Not_found -> 0 in
    Hashtbl.replace ready_tbl k (c + 1);
    c + 1
  in
  (* Leader-local state per tree. *)
  let released = Array.make tcount 0 in
  let own_done = Hashtbl.create 64 in
  let ndone_tbl = Hashtbl.create 64 in
  let rec node_try_pulse v =
    let p = current.(v) + 1 in
    if p <= pulses then
      if List.for_all (fun tid -> go.(v).(tid) >= p) member_trees.(v) then begin
        current.(v) <- p;
        pulse_times.(v).(p) <- net.Net.now v;
        List.iter (fun tid -> node_ready tid p v) member_trees.(v);
        node_try_pulse v
      end

  and node_ready tid p v =
    let needed = List.length (tree_children tid v) + 1 in
    let have = incr_ready tid p v in
    assert (have <= needed);
    if have = needed then begin
      let tr = trees.(tid) in
      if v = tr.TC.root then tree_done tid p
      else
        net.Net.send ~src:v ~dst:tr.TC.parent.(v)
          (TReady { tree = tid; pulse = p })
    end

  and tree_done tid p =
    Hashtbl.replace own_done (tid, p) ();
    broadcast_done tid p trees.(tid).TC.root;
    leader_check tid p

  and broadcast_done tid p v =
    List.iter
      (fun c -> net.Net.send ~src:v ~dst:c (TDone { tree = tid; pulse = p }))
      (tree_children tid v);
    if neighbor_phase then relay_done tid p v

  (* If [v] is the designated relay from [tid] towards a neighbouring tree,
     start a report towards that tree's leader (alpha among trees). *)
  and relay_done tid p v =
    List.iter
      (fun dst_tree ->
        if dst_tree <> tid then
          match Hashtbl.find_opt relay (tid, dst_tree) with
          | Some r when r = v -> forward_ndone ~src_tree:tid ~dst_tree ~pulse:p v
          | _ -> ())
      member_trees.(v)

  and forward_ndone ~src_tree ~dst_tree ~pulse v =
    let tr = trees.(dst_tree) in
    if v = tr.TC.root then begin
      let k = (dst_tree, pulse) in
      let c = try Hashtbl.find ndone_tbl k with Not_found -> 0 in
      Hashtbl.replace ndone_tbl k (c + 1);
      leader_check dst_tree pulse
    end
    else
      net.Net.send ~src:v ~dst:tr.TC.parent.(v)
        (TNeighborDone { src_tree; dst_tree; pulse })

  (* The leader releases pulse p+1 once its own tree and every neighbouring
     tree are done with pulse p. *)
  and leader_check tid p =
    if p < pulses && released.(tid) = p then begin
      let own = Hashtbl.mem own_done (tid, p) in
      let nd = try Hashtbl.find ndone_tbl (tid, p) with Not_found -> 0 in
      assert (nd <= neighbor_count.(tid));
      let neighbors_ok =
        (not neighbor_phase) || nd = neighbor_count.(tid)
      in
      if own && neighbors_ok then begin
        released.(tid) <- p + 1;
        broadcast_go tid (p + 1) trees.(tid).TC.root
      end
    end

  and broadcast_go tid p v =
    go.(v).(tid) <- max go.(v).(tid) p;
    List.iter
      (fun c -> net.Net.send ~src:v ~dst:c (TGo { tree = tid; pulse = p }))
      (tree_children tid v);
    node_try_pulse v
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src msg ->
        ignore src;
        match msg with
        | TReady { tree; pulse } -> node_ready tree pulse v
        | TDone { tree; pulse } -> broadcast_done tree pulse v
        | TNeighborDone { src_tree; dst_tree; pulse } ->
          forward_ndone ~src_tree ~dst_tree ~pulse v
        | TGo { tree; pulse } -> broadcast_go tree pulse v)
  done;
  net.Net.schedule 0 (fun () ->
      for v = 0 to n - 1 do
        node_try_pulse v
      done);
  ignore (net.Net.run ());
  summarise g net ~pulses pulse_times

let check_causality g r =
  let ok = ref true in
  for v = 0 to G.n g - 1 do
    for p = 1 to r.pulses do
      G.iter_neighbors g v (fun u _ _ ->
          if r.pulse_times.(v).(p) < r.pulse_times.(u).(p - 1) -. 1e-9 then
            ok := false)
    done
  done;
  !ok
