module Net = Csap_dsim.Net
module G = Csap_graph.Graph

type result = {
  tree : Csap_graph.Tree.t;
  dist : int array;
  measures : Measures.t;
}

(* Messages carry the full candidate distance for the receiver (sender's
   distance plus the edge weight), so the handler needs no edge lookup to
   evaluate an improvement. *)

let run ?delay ?domains g ~source =
  let n = G.n g in
  if source < 0 || source >= n then
    invalid_arg "Spt_async.run: source out of range";
  let net = Net.make ?delay ?domains g in
  let send = net.Net.send in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let parent_w = Array.make n 0 in
  (* Each vertex's last improvement time; their max is the run's. Kept
     per vertex so the partitioned backend writes only owned slots. *)
  let improved = Array.make n 0.0 in
  let announce v ~except ~d =
    G.iter_neighbors g v (fun u w _ ->
        if u <> except then send ~src:v ~dst:u (d + w))
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src d ->
        if d < dist.(v) then begin
          dist.(v) <- d;
          parent.(v) <- src;
          (match G.edge_between g v src with
          | Some (w, _) -> parent_w.(v) <- w
          | None -> assert false);
          improved.(v) <- net.Net.now v;
          announce v ~except:src ~d
        end)
  done;
  net.Net.schedule source (fun () ->
      dist.(source) <- 0;
      announce source ~except:(-1) ~d:0);
  ignore (net.Net.run ());
  if Array.exists (fun d -> d = max_int) dist then
    invalid_arg "Spt_async: graph is disconnected";
  let tree =
    Csap_graph.Tree.of_parents ~root:source ~parents:parent ~weights:parent_w
  in
  let completion = Array.fold_left Float.max 0.0 improved in
  let measures =
    {
      (Measures.of_metrics (net.Net.metrics ())) with
      Measures.time = completion;
    }
  in
  { tree; dist; measures }
