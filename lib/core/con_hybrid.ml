module Net = Csap_dsim.Net
module G = Csap_graph.Graph

type winner =
  | Dfs
  | Mst_centr

type result = {
  spanning_tree : Csap_graph.Tree.t;
  winner : winner;
  measures : Measures.t;
  dfs_estimate : int;
  mst_estimate : int;
  transport : Net.stats;
}

type msg =
  | A of Dfs_token.msg
  | B of Centr_growth.msg

let run ?spec g ~root =
  G.check_root "Con_hybrid.run" g root;
  let net = Net.make ?spec g in
  (* The root's view of each algorithm's spending (W_a, W_b) and the switch
     deciding which one currently holds the permit. *)
  let w_a = ref 0 and w_b = ref 0 in
  let outcome = ref None in
  let dfs = ref None and mst = ref None in
  let permit_dfs () = !outcome = None && !w_a <= !w_b in
  let permit_mst () = !outcome = None && !w_b < !w_a in
  let rebalance () =
    (* Wake whichever algorithm the permit now favours. Suspended resumes
       are root-local: the token / phase commit is parked at the root. *)
    if !outcome = None then begin
      (match !dfs with
      | Some d when permit_dfs () -> Dfs_token.resume d
      | _ -> ());
      match !mst with
      | Some m when permit_mst () -> Centr_growth.resume m
      | _ -> ()
    end
  in
  let dfs_t =
    Dfs_token.create ~net
      ~inject:(fun m -> A m)
      ~root ~may_proceed:permit_dfs
      ~on_root_estimate:(fun est ->
        w_a := est;
        rebalance ())
      ~on_done:(fun () -> if !outcome = None then outcome := Some Dfs)
      ()
  in
  let mst_t =
    Centr_growth.create ~net
      ~inject:(fun m -> B m)
      ~mode:Centr_growth.Mst ~root ~may_proceed:permit_mst
      ~on_root_estimate:(fun est ->
        w_b := est;
        rebalance ())
      ~on_done:(fun () -> if !outcome = None then outcome := Some Mst_centr)
      ()
  in
  dfs := Some dfs_t;
  mst := Some mst_t;
  for v = 0 to G.n g - 1 do
    net.Net.set_handler v (fun ~src m ->
        if !outcome = None then
          match m with
          | A m -> Dfs_token.handle dfs_t ~me:v ~src m
          | B m -> Centr_growth.handle mst_t ~me:v ~src m)
  done;
  Dfs_token.start dfs_t;
  Centr_growth.start mst_t;
  ignore (net.Net.run ());
  match !outcome with
  | None -> failwith "Con_hybrid.run: neither algorithm terminated"
  | Some winner ->
    let spanning_tree =
      match winner with
      | Dfs -> Dfs_token.tree dfs_t
      | Mst_centr -> Centr_growth.tree mst_t
    in
    {
      spanning_tree;
      winner;
      measures = Measures.of_metrics (net.Net.metrics ());
      dfs_estimate = !w_a;
      mst_estimate = !w_b;
      transport = net.Net.stats ();
    }
