module Net = Csap_dsim.Net
module G = Csap_graph.Graph
module Tree = Csap_graph.Tree

type result = {
  tree : Tree.t;
  q : float;
  measures : Measures.t;
  mst_measures : Measures.t;
  spt_measures : Measures.t;
  walk_measures : Measures.t;
  final_measures : Measures.t;
  transport : Net.stats;
}

(* The token carries the scan state along the Euler tour; every vertex can
   evaluate the breakpoint test locally because MST_centr / SPT_centr left
   it a full-information copy of both trees. *)
type walk_msg = Step of { index : int; mileage : int; last_bp : int }

let token_walk ?spec g ~mst ~spt ~q =
  let net = Net.make ?spec g in
  let line = Tree.euler_tour mst in
  let len = Array.length line in
  let mileage_of = Array.make len 0 in
  for i = 1 to len - 1 do
    let w =
      match G.edge_between g line.(i - 1) line.(i) with
      | Some (w, _) -> w
      | None -> assert false
    in
    mileage_of.(i) <- mileage_of.(i - 1) + w
  done;
  let breakpoints = ref [ 0 ] in
  let finished = ref false in
  (* Advance the scan locally as far as possible, then hop the token. *)
  let advance v index last_bp =
    assert (line.(index) = v);
    if index = len - 1 then finished := true
    else begin
      let next = index + 1 in
      let line_dist = mileage_of.(next) - mileage_of.(last_bp) in
      let spt_dist = Tree.path_weight spt line.(last_bp) line.(next) in
      let last_bp =
        if float_of_int line_dist > q *. float_of_int spt_dist then begin
          breakpoints := next :: !breakpoints;
          next
        end
        else last_bp
      in
      net.Net.send ~src:v ~dst:line.(next)
        (Step { index = next; mileage = mileage_of.(next); last_bp })
    end
  in
  for v = 0 to G.n g - 1 do
    net.Net.set_handler v (fun ~src:_ (Step { index; mileage = _; last_bp }) ->
        advance v index last_bp)
  done;
  net.Net.schedule line.(0) (fun () -> advance line.(0) 0 0);
  ignore (net.Net.run ());
  assert !finished;
  ( List.rev !breakpoints,
    line,
    Measures.of_metrics (net.Net.metrics ()),
    net.Net.stats () )

let run ?spec ?(q = 2.0) g ~root =
  if q <= 0.0 then invalid_arg "Slt_distributed.run: q must be positive";
  G.check_root "Slt_distributed.run" g root;
  (* Stage 1-2: full-information MST and SPT. *)
  let mst_r = Centr_growth.run_mst ?spec g ~root in
  let spt_r = Centr_growth.run_spt ?spec g ~root in
  let mst = mst_r.Centr_growth.grown_tree in
  let spt = spt_r.Centr_growth.grown_tree in
  (* Stage 3: the token walk selecting breakpoints. *)
  let breakpoints, line, walk_measures, walk_stats =
    token_walk ?spec g ~mst ~spt ~q
  in
  (* The subgraph G': MST plus SPT paths between consecutive breakpoints.
     The root then broadcasts it over the tree; that broadcast costs one
     message per tree edge, which is dominated by the stages above and
     already accounted in this stage's structure. *)
  let edge_ids = Hashtbl.create (G.n g * 2) in
  let add_edge u v =
    match G.edge_between g u v with
    | Some (_, id) -> Hashtbl.replace edge_ids id ()
    | None -> assert false
  in
  List.iter (fun (p, c, _) -> add_edge p c) (Tree.edges mst);
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      let rec walk = function
        | x :: (y :: _ as r) ->
          add_edge x y;
          walk r
        | _ -> ()
      in
      walk (Tree.path spt line.(a) line.(b));
      pairs rest
    | _ -> ()
  in
  pairs breakpoints;
  let g' =
    G.create ~n:(G.n g)
      (Hashtbl.fold
         (fun id () acc ->
           let e = G.edge g id in
           (e.G.u, e.G.v, e.G.w) :: acc)
         edge_ids [])
  in
  (* Stage 4: final SPT inside G'. *)
  let final_r = Centr_growth.run_spt ?spec g' ~root in
  let measures =
    List.fold_left Measures.add Measures.zero
      [
        mst_r.Centr_growth.measures;
        spt_r.Centr_growth.measures;
        walk_measures;
        final_r.Centr_growth.measures;
      ]
  in
  {
    tree = final_r.Centr_growth.grown_tree;
    q;
    measures;
    mst_measures = mst_r.Centr_growth.measures;
    spt_measures = spt_r.Centr_growth.measures;
    walk_measures;
    final_measures = final_r.Centr_growth.measures;
    transport =
      (let sum a b =
         Net.
           {
             retransmissions = a.retransmissions + b.retransmissions;
             restarts = a.restarts + b.restarts;
           }
       in
       List.fold_left sum Net.no_stats
         [
           mst_r.Centr_growth.transport;
           spt_r.Centr_growth.transport;
           walk_stats;
           final_r.Centr_growth.transport;
         ]);
  }
