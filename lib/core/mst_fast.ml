(* Cold call site of the deprecated tuple [Graph.neighbors]: like
   [Mst_ghs], per-port state is kept aligned with the adjacency rows and
   indexed randomly, which wants the shim's arrays. *)
[@@@alert "-deprecated"]

module Net = Csap_dsim.Net
module G = Csap_graph.Graph
module Tree = Csap_graph.Tree

type key = int * int * int

(* Candidate outgoing edge: its canonical key plus the inner endpoint. *)
type cand = {
  ckey : key;
  inner : int;
}

type msg =
  (* Coordination over the barrier tree. *)
  | Phase_start of int
  | Start_merge of int
  | Finish
  | Barrier_up of { phase : int; stage : int; count : int; no_out : int }
  (* Fragment-internal traffic. *)
  | Scan of { guess : int }
  | Scan_report of { best : cand option; heavier : bool }
  | Select_done of { none_out : bool }
  | F_change_root
  | F_connect
  | F_init of { fid : key }
  (* Probing. *)
  | Probe of { fid : key }
  | Probe_reply of { same : bool }

type probe_state =
  | Unknown
  | Diff_cached  (* outgoing as of this phase *)
  | Same_rejected  (* permanently internal *)

type result = {
  mst : Tree.t;
  measures : Measures.t;
  phases : int;
  scan_rounds : int;
  transport : Net.stats;
}

let run ?delay ?faults ?reliable g =
  let n = G.n g in
  if n < 2 then invalid_arg "Mst_fast.run: n >= 2 required";
  if not (G.is_connected g) then invalid_arg "Mst_fast.run: disconnected";
  let net = Net.make ?reliable ?delay ?faults g in
  let stats = Net.monitor net in
  let adj v = G.neighbors g v in
  let edge_key v i =
    let u, w, _ = (adj v).(i) in
    (w, min v u, max v u)
  in
  let index_of v u =
    let i = G.neighbor_index g v u in
    assert (i >= 0);
    i
  in
  (* Barrier (coordination) tree: a shallow-light tree rooted at 0. *)
  let btree = (Slt.build g ~root:0).Slt.tree in
  let coordinator = 0 in
  let b_children = Array.init n (fun v -> Tree.children btree v) in
  (* Barrier aggregation compares against subtree sizes: each child sends a
     single aggregate carrying its whole subtree's count. *)
  let b_subtree = Array.make n 1 in
  Array.iter
    (fun v ->
      let rec up v =
        match Tree.parent btree v with
        | Some (p, _) -> b_subtree.(p) <- b_subtree.(p) + 1; up p
        | None -> ()
      in
      up v)
    (Array.init n Fun.id);
  (* --- fragment structure --- *)
  let fid = Array.init n (fun v -> (0, v, v)) in
  let f_parent = Array.make n (-1) in
  let f_children = Array.make n [] in
  (* --- per-phase scan state --- *)
  let probe = Array.init n (fun v -> Array.make (G.degree g v) Unknown) in
  let pending_probes = Array.make n 0 in
  let pending_reports = Array.make n 0 in
  let my_best = Array.make n None in
  let my_heavier = Array.make n false in
  let best_via = Array.make n (-1) in
  (* -1 = own incident edge (stored in own_best_adj), else child vertex *)
  let own_best_adj = Array.make n (-1) in
  let guess = Array.make n 1 in
  (* --- merge state --- *)
  let sent_connect_to = Array.make n (-1) in
  let got_connect_from = Array.init n (fun _ -> Hashtbl.create 2) in
  (* --- barrier state --- *)
  let b_count = Array.make n 0 in
  let b_noout = Array.make n 0 in
  let b_self = Array.make n false in
  let inited = Array.make n false in
  let cur_phase = ref 0 in
  let cur_stage = ref 0 in
  let finished = ref false in
  let phases_run = ref 0 in
  let scan_rounds = ref 0 in
  let send v u m = net.Net.send ~src:v ~dst:u m in

  (* ---------------- barrier machinery ---------------- *)
  let rec barrier_flush v ~phase ~stage =
    (* Forward the aggregate when the whole subtree has contributed. *)
    if b_self.(v) && b_count.(v) = b_subtree.(v) then begin
      ignore stage;
      let count = b_count.(v) and no_out = b_noout.(v) in
      b_count.(v) <- 0;
      b_noout.(v) <- 0;
      b_self.(v) <- false;
      if v = coordinator then coordinator_barrier_done ~phase ~stage ~count ~no_out
      else
        match Tree.parent btree v with
        | Some (p, _) -> send v p (Barrier_up { phase; stage; count; no_out })
        | None -> assert false
    end

  and barrier_contribute v ~phase ~stage ~no_out =
    assert (not b_self.(v));
    b_self.(v) <- true;
    b_count.(v) <- b_count.(v) + 1;
    if no_out then b_noout.(v) <- b_noout.(v) + 1;
    barrier_flush v ~phase ~stage

  and coordinator_barrier_done ~phase ~stage ~count ~no_out =
    assert (count = n);
    if stage = 0 then begin
      (* Selection finished everywhere. *)
      if no_out = n then finish_all ()
      else begin
        assert (no_out = 0);
        cur_stage := 1;
        broadcast_barrier (Start_merge phase)
      end
    end
    else begin
      (* Merging finished everywhere: next phase. *)
      cur_phase := phase + 1;
      cur_stage := 0;
      incr phases_run;
      broadcast_barrier (Phase_start (phase + 1))
    end

  and broadcast_barrier m =
    List.iter (fun c -> send coordinator c m) b_children.(coordinator);
    handle_coordination coordinator m

  and finish_all () =
    finished := true;
    List.iter (fun c -> send coordinator c Finish) b_children.(coordinator)

  (* ---------------- sub-phase A: doubling scan ---------------- *)
  and begin_select v =
    (* Only fragment roots drive the scan. *)
    if f_parent.(v) < 0 then begin
      incr scan_rounds;
      scan_fragment v ~guess:guess.(v)
    end

  and scan_fragment root ~guess:g_val =
    guess.(root) <- g_val;
    start_scan root ~guess:g_val

  and start_scan v ~guess:g_val =
    (* Reset per-round state and fan out to fragment children. *)
    pending_reports.(v) <- List.length f_children.(v);
    my_best.(v) <- None;
    my_heavier.(v) <- false;
    best_via.(v) <- -1;
    own_best_adj.(v) <- -1;
    List.iter (fun c -> send v c (Scan { guess = g_val })) f_children.(v);
    (* Probe eligible edges in parallel. *)
    let to_probe = ref [] in
    Array.iteri
      (fun i (u, w, _) ->
        match probe.(v).(i) with
        | Same_rejected -> ()
        | Diff_cached ->
          (* Known outgoing from an earlier round this phase. *)
          let k = edge_key v i in
          (match my_best.(v) with
          | Some c when compare c.ckey k <= 0 -> ()
          | _ ->
            my_best.(v) <- Some { ckey = k; inner = v };
            own_best_adj.(v) <- i)
        | Unknown ->
          if w <= g_val then to_probe := (i, u) :: !to_probe
          else my_heavier.(v) <- true)
      (adj v);
    pending_probes.(v) <- List.length !to_probe;
    List.iter (fun (_, u) -> send v u (Probe { fid = fid.(v) })) !to_probe;
    maybe_report v

  and maybe_report v =
    if pending_probes.(v) = 0 && pending_reports.(v) = 0 then begin
      if f_parent.(v) < 0 then root_decide v
      else begin
        (match my_best.(v) with
        | Some c when c.inner = v -> best_via.(v) <- -1
        | _ -> ());
        send v f_parent.(v)
          (Scan_report { best = my_best.(v); heavier = my_heavier.(v) })
      end
    end

  and root_decide v =
    match my_best.(v) with
    | Some _ ->
      (* Minimum outgoing edge selected: tell the fragment. *)
      select_done_cascade v ~none_out:false
    | None ->
      if my_heavier.(v) then begin
        guess.(v) <- 2 * guess.(v);
        incr scan_rounds;
        start_scan v ~guess:guess.(v)
      end
      else select_done_cascade v ~none_out:true

  and select_done_cascade v ~none_out =
    List.iter (fun c -> send v c (Select_done { none_out })) f_children.(v);
    barrier_contribute v ~phase:!cur_phase ~stage:0 ~no_out:none_out

  (* ---------------- sub-phase B: merging ---------------- *)
  and begin_merge v =
    if f_parent.(v) < 0 then route_change_root v

  and route_change_root v =
    if best_via.(v) = -1 then begin
      (* v's own incident edge is the fragment's minimum outgoing edge. *)
      let i = own_best_adj.(v) in
      assert (i >= 0);
      let u, _, _ = (adj v).(i) in
      do_connect v u
    end
    else begin
      let child = best_via.(v) in
      (* Reverse the tree edge: v now hangs under the child. *)
      f_children.(v) <- List.filter (fun c -> c <> child) f_children.(v);
      f_parent.(v) <- child;
      f_children.(child) <- v :: f_children.(child);
      send v child F_change_root
    end

  and do_connect v u =
    sent_connect_to.(v) <- u;
    f_parent.(v) <- u;
    (* Always transmit: the other endpoint needs to see the Connect to
       detect mutuality (or to adopt v as a hooked child). *)
    send v u F_connect;
    if Hashtbl.mem got_connect_from.(v) u then resolve_mutual v u

  and resolve_mutual v u =
    (* Both endpoints sent Connect over the same edge: it is the new core;
       the smaller endpoint id becomes the merged fragment's root. *)
    let i = index_of v u in
    let core = edge_key v i in
    if v < u then begin
      f_parent.(v) <- -1;
      if not (List.mem u f_children.(v)) then
        f_children.(v) <- u :: f_children.(v);
      f_init_cascade v ~fid:core
    end
    else begin
      f_parent.(v) <- u;
      f_children.(v) <- List.filter (fun c -> c <> u) f_children.(v)
    end

  and f_init_cascade v ~fid:new_fid =
    inited.(v) <- true;
    fid.(v) <- new_fid;
    (* Stale outgoing knowledge: fragments just merged. *)
    Array.iteri
      (fun i s -> if s = Diff_cached then probe.(v).(i) <- Unknown)
      probe.(v);
    sent_connect_to.(v) <- -1;
    Hashtbl.reset got_connect_from.(v);
    List.iter (fun c -> send v c (F_init { fid = new_fid })) f_children.(v);
    barrier_contribute v ~phase:!cur_phase ~stage:1 ~no_out:false

  (* ---------------- dispatch ---------------- *)
  and handle_coordination v m =
    match m with
    | Phase_start _ ->
      inited.(v) <- false;
      begin_select v
    | Start_merge _ -> begin_merge v
    | Finish -> ()
    | _ -> assert false

  and handle v ~src m =
    match m with
    | Phase_start _ | Start_merge _ | Finish ->
      List.iter (fun c -> send v c m) b_children.(v);
      handle_coordination v m
    | Barrier_up { phase; stage; count; no_out } ->
      b_count.(v) <- b_count.(v) + count;
      b_noout.(v) <- b_noout.(v) + no_out;
      barrier_flush v ~phase ~stage
    | Scan { guess = g_val } -> start_scan v ~guess:g_val
    | Probe { fid = f } ->
      send v src (Probe_reply { same = f = fid.(v) })
    | Probe_reply { same } ->
      let i = index_of v src in
      if same then probe.(v).(i) <- Same_rejected
      else begin
        probe.(v).(i) <- Diff_cached;
        let k = edge_key v i in
        match my_best.(v) with
        | Some c when compare c.ckey k <= 0 -> ()
        | _ ->
          my_best.(v) <- Some { ckey = k; inner = v };
          own_best_adj.(v) <- i;
          best_via.(v) <- -1
      end;
      pending_probes.(v) <- pending_probes.(v) - 1;
      maybe_report v
    | Scan_report { best; heavier } ->
      (match best with
      | Some c ->
        (match my_best.(v) with
        | Some b when compare b.ckey c.ckey <= 0 -> ()
        | _ ->
          my_best.(v) <- Some c;
          best_via.(v) <- src)
      | None -> ());
      if heavier then my_heavier.(v) <- true;
      pending_reports.(v) <- pending_reports.(v) - 1;
      maybe_report v
    | Select_done { none_out } -> select_done_cascade v ~none_out
    | F_change_root -> route_change_root v
    | F_connect ->
      Hashtbl.replace got_connect_from.(v) src ();
      if sent_connect_to.(v) = src then resolve_mutual v src
      else begin
        if not (List.mem src f_children.(v)) then
          f_children.(v) <- src :: f_children.(v);
        (* The merged fragment's F_init may already have swept past v:
           forward the identity to the late-hooking child directly. *)
        if inited.(v) then send v src (F_init { fid = fid.(v) })
      end
    | F_init { fid = new_fid } -> f_init_cascade v ~fid:new_fid
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src m -> handle v ~src m)
  done;
  net.Net.schedule 0 (fun () -> broadcast_barrier (Phase_start 0));
  ignore (net.Net.run ());
  if not !finished then failwith "Mst_fast.run: did not terminate";
  (* The fragment tree is now the MST (single fragment). *)
  let parents = Array.copy f_parent in
  let weights = Array.make n 0 in
  let root = ref (-1) in
  Array.iteri
    (fun v p ->
      if p < 0 then begin
        assert (!root < 0);
        root := v
      end
      else
        match G.edge_between g v p with
        | Some (w, _) -> weights.(v) <- w
        | None -> assert false)
    parents;
  let mst = Tree.of_parents ~root:!root ~parents ~weights in
  {
    mst;
    measures = Measures.of_metrics (net.Net.metrics ());
    phases = !phases_run;
    scan_rounds = !scan_rounds;
    transport = stats ();
  }
