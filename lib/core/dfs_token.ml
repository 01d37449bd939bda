module Net = Csap_dsim.Net
module G = Csap_graph.Graph

type msg =
  | Forward  (* token visits a neighbour *)
  | Reject  (* neighbour was already visited; token bounces back *)
  | Retreat  (* token backtracks to its DFS parent *)
  | To_root of int  (* estimate refresh hop, carrying the new estimate *)
  | From_root  (* token release hop, routed back to the frontier *)

type 'm shared = {
  net : 'm Net.t;
  inject : msg -> 'm;
  root : int;
  may_proceed : unit -> bool;
  on_root_estimate : int -> unit;
  on_done : unit -> unit;
}

type 'm t = {
  sh : 'm shared;
  visited : bool array;
  parent : int array;
  parent_w : int array;
  iter : int array;  (* next adjacency index to try at each vertex *)
  return_child : int array;  (* routing for From_root hops *)
  mutable est_c : int;
  mutable est_r : int;
  mutable pending_site : int;  (* vertex where the token waits, or -1 *)
  mutable pending_action : (unit -> unit) option;
  mutable suspended : bool;
  mutable finished : bool;
}

let create ~net ~inject ~root ?(may_proceed = fun () -> true)
    ?(on_root_estimate = fun _ -> ()) ~on_done () =
  let n = G.n net.Net.graph in
  {
    sh = { net; inject; root; may_proceed; on_root_estimate; on_done };
    visited = Array.make n false;
    parent = Array.make n (-1);
    parent_w = Array.make n 0;
    iter = Array.make n 0;
    return_child = Array.make n (-1);
    est_c = 0;
    est_r = 0;
    pending_site = -1;
    pending_action = None;
    suspended = false;
    finished = false;
  }

let send t ~src ~dst m = t.sh.net.Net.send ~src ~dst (t.sh.inject m)

(* Run the pending traversal parked at the root. *)
let rec fire_pending t =
  t.pending_site <- -1;
  match t.pending_action with
  | Some action ->
    t.pending_action <- None;
    action ()
  | None -> assert false

(* Token release: route From_root hops back to the waiting frontier. *)
and release t =
  let v = t.sh.root in
  if t.pending_site = v then fire_pending t
  else send t ~src:v ~dst:t.return_child.(v) From_root

and root_update t est =
  t.est_r <- est;
  t.sh.on_root_estimate est;
  if t.sh.may_proceed () then release t else t.suspended <- true

(* Every token traversal from [v] over an edge of weight [w] passes through
   this guard: when it would double the centre estimate relative to the
   root's view, the root estimate is refreshed (hops to the root and back)
   before the traversal happens. This keeps EST_R a 2-approximation of
   EST_C at all times and at most doubles the communication. *)
and guarded_traversal t v ~w action =
  if t.est_c + w >= 2 * t.est_r then begin
    t.pending_site <- v;
    t.pending_action <- Some action;
    if v = t.sh.root then root_update t (t.est_c + w)
    else send t ~src:v ~dst:t.parent.(v) (To_root (t.est_c + w))
  end
  else action ()

(* The token sits at [v]; advance the DFS. *)
and continue_at t v =
  let g = t.sh.net.Net.graph in
  let deg = G.degree g v in
  (* The token addresses [v]'s ports by position: the [iter.(v)]-th slot
     of its CSR row. *)
  let row = (G.csr_offsets g).(v) in
  let nbr = G.csr_neighbors g in
  (* Skip the edge back to the DFS parent; it is used only by Retreat. *)
  while t.iter.(v) < deg
        && v <> t.sh.root
        && nbr.(row + t.iter.(v)) = t.parent.(v)
  do
    t.iter.(v) <- t.iter.(v) + 1
  done;
  if t.iter.(v) < deg then begin
    let u = nbr.(row + t.iter.(v)) in
    let w = (G.csr_weights g).(row + t.iter.(v)) in
    guarded_traversal t v ~w (fun () ->
        t.est_c <- t.est_c + w;
        send t ~src:v ~dst:u Forward)
  end
  else if v = t.sh.root then begin
    t.finished <- true;
    t.sh.on_done ()
  end
  else begin
    let w = t.parent_w.(v) in
    guarded_traversal t v ~w (fun () ->
        t.est_c <- t.est_c + w;
        send t ~src:v ~dst:t.parent.(v) Retreat)
  end

let handle t ~me ~src msg =
  let g = t.sh.net.Net.graph in
  match msg with
  | Forward ->
    if t.visited.(me) then begin
      let w =
        match G.edge_between g me src with
        | Some (w, _) -> w
        | None -> assert false
      in
      guarded_traversal t me ~w (fun () ->
          t.est_c <- t.est_c + w;
          send t ~src:me ~dst:src Reject)
    end
    else begin
      t.visited.(me) <- true;
      if me <> t.sh.root then begin
        t.parent.(me) <- src;
        match G.edge_between g me src with
        | Some (w, _) -> t.parent_w.(me) <- w
        | None -> assert false
      end;
      continue_at t me
    end
  | Reject | Retreat ->
    t.iter.(me) <- t.iter.(me) + 1;
    continue_at t me
  | To_root est ->
    t.return_child.(me) <- src;
    if me = t.sh.root then root_update t est
    else send t ~src:me ~dst:t.parent.(me) (To_root est)
  | From_root ->
    if t.pending_site = me then fire_pending t
    else send t ~src:me ~dst:t.return_child.(me) From_root

let start t =
  t.sh.net.Net.schedule t.sh.root (fun () ->
      t.visited.(t.sh.root) <- true;
      continue_at t t.sh.root)

let resume t =
  if t.suspended then begin
    t.suspended <- false;
    release t
  end

let finished t = t.finished

let tree t =
  if not t.finished then failwith "Dfs_token.tree: DFS not finished";
  Csap_graph.Tree.of_parents ~root:t.sh.root ~parents:t.parent
    ~weights:t.parent_w

let root_estimate t = t.est_r
let center_estimate t = t.est_c

type result = {
  dfs_tree : Csap_graph.Tree.t;
  measures : Measures.t;
  final_center_estimate : int;
  final_root_estimate : int;
  transport : Net.stats;
}

let run ?spec g ~root =
  G.check_root "Dfs_token.run" g root;
  let net = Net.make ?spec g in
  let t = create ~net ~inject:Fun.id ~root ~on_done:(fun () -> ()) () in
  for v = 0 to G.n g - 1 do
    net.Net.set_handler v (fun ~src m -> handle t ~me:v ~src m)
  done;
  start t;
  ignore (net.Net.run ());
  if not (finished t) then failwith "Dfs_token.run: did not terminate";
  {
    dfs_tree = tree t;
    measures = Measures.of_metrics (net.Net.metrics ());
    final_center_estimate = center_estimate t;
    final_root_estimate = root_estimate t;
    transport = net.Net.stats ();
  }
