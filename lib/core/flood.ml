module Engine = Csap_dsim.Engine
module Net = Csap_dsim.Net
module G = Csap_graph.Graph

type result = {
  tree : Csap_graph.Tree.t;
  arrival : float array;
  measures : Measures.t;
  transport : Net.stats;
}

type msg = Wave

type engine = msg Engine.t

let make_engine ?delay g = Engine.create ?delay g

let net_of ?delay ?faults ?reliable ?domains ?engine g =
  match engine with
  | None -> Net.make ?reliable ?delay ?faults ?domains g
  | Some eng ->
    if G.id (Engine.graph eng) <> G.id g then
      invalid_arg "Flood.run: engine built over a different graph";
    if reliable = Some true || Option.value domains ~default:1 > 1 then
      invalid_arg "Flood.run: a reused engine is sequential and shimless";
    Engine.reset ?delay ?faults eng;
    Net.of_engine eng

(* The wave state lives in stable storage: a crashed vertex keeps what it
   learned, and a restart only rebuilds transport state. Resetting
   [reached] instead would be unsound: copies delivered before the crash
   are never redelivered, and re-parenting on a late copy could close a
   cycle. On the partitioned backend the per-vertex arrays are safe to
   share unlocked — vertex [v]'s slots are written only inside [v]'s
   handler, on [v]'s owning domain, and read here only after the run. *)
let run ?delay ?faults ?reliable ?domains ?engine g ~source =
  let n = G.n g in
  let net = net_of ?delay ?faults ?reliable ?domains ?engine g in
  let stats = Net.monitor net in
  let send = net.Net.send in
  let parent = Array.make n (-1) in
  let parent_w = Array.make n 0 in
  let reached = Array.make n false in
  let arrival = Array.make n infinity in
  let forward v ~except =
    G.iter_neighbors g v (fun u _ _ -> if u <> except then send ~src:v ~dst:u Wave)
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src Wave ->
        if not reached.(v) then begin
          reached.(v) <- true;
          arrival.(v) <- net.Net.now v;
          parent.(v) <- src;
          (match G.edge_between g v src with
          | Some (w, _) -> parent_w.(v) <- w
          | None -> assert false);
          forward v ~except:src
        end)
  done;
  net.Net.schedule source (fun () ->
      reached.(source) <- true;
      arrival.(source) <- 0.0;
      forward source ~except:(-1));
  ignore (net.Net.run ());
  if not (Array.for_all Fun.id reached) then
    invalid_arg "Flood.run: the wave did not cover the graph";
  let tree =
    Csap_graph.Tree.of_parents ~root:source ~parents:parent ~weights:parent_w
  in
  (* The broadcast completes when the last vertex is reached; duplicate
     copies still in flight afterwards cost communication but not time. *)
  let completion = Array.fold_left Float.max 0.0 arrival in
  let measures =
    {
      (Measures.of_metrics (net.Net.metrics ())) with
      Measures.time = completion;
    }
  in
  { tree; arrival; measures; transport = stats () }
