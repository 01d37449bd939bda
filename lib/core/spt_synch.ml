module G = Csap_graph.Graph
module SP = Csap_dsim.Sync_protocol

type state = {
  dist : int;
  parent : int;
}

let protocol ~source =
  {
    SP.init =
      (fun _ ~me ->
        if me = source then { dist = 0; parent = -1 }
        else { dist = max_int; parent = -1 });
    on_pulse =
      (fun g ~me ~pulse ~inbox state ->
        let announce d =
          List.rev (G.fold_neighbors g me (fun acc u _ _ -> (u, d) :: acc) [])
        in
        if me = source && pulse = 0 then (state, announce 0)
        else begin
          (* A message carrying d over an edge of weight w proposes d + w,
             which equals the arrival pulse; the first one wins. *)
          let best =
            List.fold_left
              (fun acc (src, d) ->
                match G.edge_between g me src with
                | Some (w, _) ->
                  let cand = d + w in
                  (match acc with
                  | Some (bd, _) when bd <= cand -> acc
                  | _ -> Some (cand, src))
                | None -> acc)
              None inbox
          in
          match best with
          | Some (cand, src) when cand < state.dist ->
            ({ dist = cand; parent = src }, announce cand)
          | _ -> (state, [])
        end)
  }

let run_synchronous g ~source =
  G.check_root "Spt_synch.run_synchronous" g source;
  let d = Csap_graph.Paths.diameter g in
  let outcome =
    Csap_dsim.Sync_runner.run g (protocol ~source) ~pulses:(d + 1)
  in
  (outcome.Csap_dsim.Sync_runner.states,
   outcome.Csap_dsim.Sync_runner.weighted_comm)

type result = {
  tree : Csap_graph.Tree.t;
  measures : Measures.t;
  proto_comm : int;
  overhead_comm : int;
  transformed_pulses : int;
  transport : Csap_dsim.Net.stats;
}

let tree_of_states g ~source states =
  let n = G.n g in
  let parents = Array.make n (-1) in
  let weights = Array.make n 0 in
  Array.iteri
    (fun v (s : state) ->
      if v <> source then begin
        if s.dist = max_int then
          invalid_arg "Spt_synch: vertex unreached (disconnected graph?)";
        parents.(v) <- s.parent;
        match G.edge_between g v s.parent with
        | Some (w, _) -> weights.(v) <- w
        | None -> assert false
      end)
    states;
  Csap_graph.Tree.of_parents ~root:source ~parents ~weights

let try_run ?delay ?faults ?reliable ?comm_budget ?k g ~source =
  G.check_root "Spt_synch.run" g source;
  let d = Csap_graph.Paths.diameter g in
  let inner, outcome =
    Synchronizer.run_transformed ?delay ?faults ?reliable ?comm_budget ?k g
      (protocol ~source) ~pulses:(d + 1)
  in
  let complete =
    Array.for_all (fun (s : state) -> s.dist < max_int) inner
  in
  if not complete then None
  else
    let tree = tree_of_states g ~source inner in
    Some
      {
        tree;
        measures = outcome.Synchronizer.total;
        proto_comm = outcome.Synchronizer.proto_comm;
        overhead_comm =
          outcome.Synchronizer.ack_comm + outcome.Synchronizer.control_comm;
        transformed_pulses = outcome.Synchronizer.pulses;
        transport = outcome.Synchronizer.transport;
      }

let run ?delay ?faults ?reliable ?k g ~source =
  match try_run ?delay ?faults ?reliable ?k g ~source with
  | Some r -> r
  | None -> failwith "Spt_synch.run: incomplete (disconnected graph?)"
