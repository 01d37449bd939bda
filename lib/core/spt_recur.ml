module Net = Csap_dsim.Net
module G = Csap_graph.Graph

(* Strip-end detection is genuine Dijkstra-Scholten termination detection
   [DS80] over the strip's diffusing computation: every Offer and every
   Strip forward is acknowledged; a vertex closes its engagement (acks its
   DS parent) when it has no outstanding acknowledgements of its own. The
   closing acknowledgements aggregate the count of newly joined vertices,
   so the source learns both "strip finished" and "how many joined" from
   the same cascade - no simulator-level quiescence oracle. *)
type msg =
  | Offer of { value : int; threshold : int }
  | Ack of int  (* aggregated count of newly joined vertices *)
  | Strip of int  (* strip-start broadcast over the partial tree *)

type result = {
  tree : Csap_graph.Tree.t;
  measures : Measures.t;
  strips : int;
  offer_comm : int;
  sync_comm : int;
  transport : Net.stats;
}

let default_strip g =
  let { Csap_graph.Paths.diameter = d; max_neighbor = dn; _ } =
    Csap_graph.Paths.extrema g
  in
  max 1 (int_of_float (sqrt (float_of_int (d * dn))))

let try_run ?delay ?faults ?reliable ?(comm_budget = max_int) g ~source
    ~strip =
  if strip < 1 then invalid_arg "Spt_recur.run: strip >= 1 required";
  let n = G.n g in
  if source < 0 || source >= n then
    invalid_arg
      (Printf.sprintf "Spt_recur.run: root %d out of range [0, %d)" source n);
  let net = Net.make ?reliable ?delay ?faults g in
  let stats = Net.monitor net in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let children = Array.make n [] in
  let threshold = Array.make n 0 in
  (* offered.(v).(i): best value already announced over edge i. *)
  let offered = Array.init n (fun v -> Array.make (G.degree g v) max_int) in
  (* Dijkstra-Scholten state. *)
  let deficit = Array.make n 0 in
  let ds_parent = Array.make n (-1) in
  let gathered = Array.make n 0 in
  let self_pending = Array.make n 0 in
  let joined_total = ref 1 in
  let strips = ref 0 in
  let finished = ref false in
  let offer_comm = ref 0 in
  let sync_comm = ref 0 in
  let edge_w v u =
    match G.edge_between g v u with
    | Some (w, _) -> w
    | None -> assert false
  in
  (* Announce every due offer that improves on what was already sent;
     each announcement joins the strip's diffusing computation. *)
  let announce v =
    let i = ref 0 in
    G.iter_neighbors g v (fun u w _ ->
        let slot = !i in
        incr i;
        if dist.(v) < max_int then begin
          let value = dist.(v) + w in
          if value <= threshold.(v) && value < offered.(v).(slot) then begin
            offered.(v).(slot) <- value;
            offer_comm := !offer_comm + w;
            deficit.(v) <- deficit.(v) + 1;
            net.Net.send ~src:v ~dst:u
              (Offer { value; threshold = threshold.(v) })
          end
        end)
  in
  let rec strip_complete () =
    (* The source's engagement closed: the strip's relaxation has quiesced
       everywhere. *)
    joined_total := !joined_total + gathered.(source);
    gathered.(source) <- 0;
    if !joined_total >= n then finished := true
    else if !strips > 4 * n * G.max_weight g then
      failwith "Spt_recur.run: no progress"
    else start_strip ()

  and start_strip () =
    incr strips;
    threshold.(source) <- threshold.(source) + strip;
    broadcast_strip source

  (* Forward the strip start over the partial tree and wake due offers;
     both the forwards and the offers count toward the DS deficit. *)
  and broadcast_strip v =
    List.iter
      (fun c ->
        sync_comm := !sync_comm + edge_w v c;
        deficit.(v) <- deficit.(v) + 1;
        net.Net.send ~src:v ~dst:c (Strip threshold.(v)))
      children.(v);
    announce v;
    try_close v

  (* A vertex is passive when its own deficit is zero: close the DS
     engagement, shipping the aggregated join count up. *)
  and try_close v =
    if deficit.(v) = 0 then begin
      if v = source then strip_complete ()
      else if ds_parent.(v) >= 0 then begin
        let p = ds_parent.(v) in
        ds_parent.(v) <- -1;
        let count = gathered.(v) + self_pending.(v) in
        gathered.(v) <- 0;
        self_pending.(v) <- 0;
        sync_comm := !sync_comm + edge_w v p;
        net.Net.send ~src:v ~dst:p (Ack count)
      end
    end
  in
  let relax v ~src value =
    if value < dist.(v) then begin
      if dist.(v) = max_int then self_pending.(v) <- 1;
      (* Keep the partial-tree children lists current through parent
         switches (corrections within a strip). *)
      if parent.(v) >= 0 then
        children.(parent.(v)) <-
          List.filter (fun c -> c <> v) children.(parent.(v));
      dist.(v) <- value;
      parent.(v) <- src;
      children.(src) <- v :: children.(src);
      announce v
    end
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src m ->
        match m with
        | Offer { value; threshold = th } ->
          threshold.(v) <- max threshold.(v) th;
          let engaging = deficit.(v) = 0 && ds_parent.(v) < 0 && v <> source in
          if engaging then ds_parent.(v) <- src;
          relax v ~src value;
          if engaging then try_close v
          else begin
            (* Not an engagement: acknowledge immediately. *)
            sync_comm := !sync_comm + edge_w v src;
            net.Net.send ~src:v ~dst:src (Ack 0);
            try_close v
          end
        | Ack count ->
          gathered.(v) <- gathered.(v) + count;
          deficit.(v) <- deficit.(v) - 1;
          assert (deficit.(v) >= 0);
          try_close v
        | Strip th ->
          threshold.(v) <- max threshold.(v) th;
          (* Usually the tree forward is this vertex's engagement for the
             strip — but an in-strip offer may have engaged it first (the
             wave can outrun the tree broadcast), in which case the Strip
             is acknowledged immediately and the forwards are owed to the
             existing engagement. *)
          let engaging = deficit.(v) = 0 && ds_parent.(v) < 0 in
          if engaging then ds_parent.(v) <- src
          else begin
            sync_comm := !sync_comm + edge_w v src;
            net.Net.send ~src:v ~dst:src (Ack 0)
          end;
          broadcast_strip v)
  done;
  dist.(source) <- 0;
  net.Net.schedule source (fun () -> start_strip ());
  ignore (net.Net.run ~comm_budget ());
  if (net.Net.metrics ()).Csap_dsim.Metrics.weighted_comm >= comm_budget
  then None
  else begin
    assert !finished;
    let weights = Array.make n 0 in
    Array.iteri
      (fun v p ->
        if v <> source then begin
          assert (p >= 0);
          weights.(v) <- edge_w v p
        end)
      parent;
    let tree =
      Csap_graph.Tree.of_parents ~root:source ~parents:parent ~weights
    in
    Some
      {
        tree;
        measures = Measures.of_metrics (net.Net.metrics ());
        strips = !strips;
        offer_comm = !offer_comm;
        sync_comm = !sync_comm;
        transport = stats ();
      }
  end

let run ?delay ?faults ?reliable g ~source ~strip =
  match try_run ?delay ?faults ?reliable g ~source ~strip with
  | Some r -> r
  | None -> assert false (* unbounded budget always completes *)
