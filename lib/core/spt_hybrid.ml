module G = Csap_graph.Graph

type winner =
  | Synch
  | Recur

type result = {
  tree : Csap_graph.Tree.t;
  winner : winner;
  total_comm : int;
  winning_measures : Measures.t;
  epochs : int;
  transport : Csap_dsim.Net.stats;
}

let run ?spec ?k ?strip g ~source =
  G.check_root "Spt_hybrid.run" g source;
  let strip =
    match strip with Some s -> s | None -> Spt_recur.default_strip g
  in
  let total_comm = ref 0 in
  let epochs = ref 0 in
  (* Start the budget at one broadcast's worth so trivial instances finish
     in the first epoch. *)
  let budget = ref (max 16 (2 * G.n g)) in
  let rec loop () =
    incr epochs;
    match
      Spt_synch.try_run ?spec ~comm_budget:!budget ?k g ~source
    with
    | Some r ->
      total_comm := !total_comm + r.Spt_synch.measures.Measures.comm;
      {
        tree = r.Spt_synch.tree;
        winner = Synch;
        total_comm = !total_comm;
        winning_measures = r.Spt_synch.measures;
        epochs = !epochs;
        transport = r.Spt_synch.transport;
      }
    | None ->
      total_comm := !total_comm + !budget;
      (match
         Spt_recur.try_run ?spec ~comm_budget:!budget g ~source ~strip
       with
      | Some r ->
        total_comm := !total_comm + r.Spt_recur.measures.Measures.comm;
        {
          tree = r.Spt_recur.tree;
          winner = Recur;
          total_comm = !total_comm;
          winning_measures = r.Spt_recur.measures;
          epochs = !epochs;
          transport = r.Spt_recur.transport;
        }
      | None ->
        total_comm := !total_comm + !budget;
        budget := 2 * !budget;
        loop ())
  in
  loop ()
