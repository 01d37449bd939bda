module Net = Csap_dsim.Net
module G = Csap_graph.Graph

type mode =
  | Mst
  | Spt

(* A candidate edge (y, x) from tree vertex y to outside vertex x. [key] is
   the selection order: canonical edge order for Prim, tentative distance
   for Dijkstra. *)
type candidate = {
  key : int * int * int;
  x : int;
  y : int;
  w : int;
  label : int;  (* dist(root, x) in SPT mode *)
}

type msg =
  | Request
  | Report of candidate option
  | Add of candidate
  | Invite of { members : int list; cand : candidate }
  | Joined

type 'm t = {
  net : 'm Net.t;
  inject : msg -> 'm;
  mode : mode;
  root : int;
  may_proceed : unit -> bool;
  on_root_estimate : int -> unit;
  on_done : unit -> unit;
  (* Per-vertex views of the growing tree (full-information invariant). *)
  in_tree : bool array;
  members : bool array array;  (* members.(v) is v's own copy *)
  children : int list array;
  parent : int array;
  parent_w : int array;
  dist : int array;  (* SPT labels; 0 for MST mode *)
  (* Phase-local convergecast state. *)
  pending : int array;
  best : candidate option array;
  mutable tree_size : int;
  mutable tree_weight : int;
  mutable spend : int;  (* root's estimate of communication spent *)
  mutable pending_commit : candidate option;
  mutable suspended : bool;
  mutable finished : bool;
  mutable phases : int;
}

let create ~net ~inject ~mode ~root ?(may_proceed = fun () -> true)
    ?(on_root_estimate = fun _ -> ()) ~on_done () =
  let n = G.n net.Net.graph in
  {
    net;
    inject;
    mode;
    root;
    may_proceed;
    on_root_estimate;
    on_done;
    in_tree = Array.make n false;
    members = Array.init n (fun _ -> [||]);
    children = Array.make n [];
    parent = Array.make n (-1);
    parent_w = Array.make n 0;
    dist = Array.make n 0;
    pending = Array.make n 0;
    best = Array.make n None;
    tree_size = 0;
    tree_weight = 0;
    spend = 0;
    pending_commit = None;
    suspended = false;
    finished = false;
    phases = 0;
  }

let send t ~src ~dst m = t.net.Net.send ~src ~dst (t.inject m)

let better a b =
  match (a, b) with
  | None, c | c, None -> c
  | Some ca, Some cb -> if compare ca.key cb.key <= 0 then a else b

(* v's own candidate: its best incident edge leaving the tree, according to
   its view of the member set. *)
let own_candidate t v =
  let g = t.net.Net.graph in
  G.fold_neighbors g v
    (fun acc u w _ ->
      if t.members.(v).(u) then acc
      else
        let cand =
          match t.mode with
          | Mst -> { key = (w, min v u, max v u); x = u; y = v; w; label = 0 }
          | Spt ->
            let d = t.dist.(v) + w in
            { key = (d, u, v); x = u; y = v; w; label = d }
        in
        better acc (Some cand))
    None

let rec report_up t v =
  let combined = better t.best.(v) (own_candidate t v) in
  if v = t.root then begin
    (* Selection at the root. *)
    match combined with
    | None ->
      (* Connected graphs always yield a candidate while the tree is
         incomplete; reaching here means the graph was disconnected. *)
      failwith "Centr_growth: no outgoing edge (disconnected graph?)"
    | Some cand ->
      t.pending_commit <- Some cand;
      t.spend <- t.spend + (3 * t.tree_weight) + cand.w;
      t.on_root_estimate t.spend;
      if t.may_proceed () then begin
        let c = Option.get t.pending_commit in
        t.pending_commit <- None;
        commit t c
      end
      else t.suspended <- true
  end
  else send t ~src:v ~dst:t.parent.(v) (Report combined)

and commit t cand =
  t.phases <- t.phases + 1;
  (* Broadcast the new edge over the tree; every member updates its view,
     and the boundary vertex y invites x. *)
  apply_add t t.root cand;
  List.iter (fun c -> send t ~src:t.root ~dst:c (Add cand)) t.children.(t.root)

and apply_add t v cand =
  t.members.(v).(cand.x) <- true;
  if v = cand.y then begin
    t.children.(v) <- cand.x :: t.children.(v);
    let member_list = ref [] in
    Array.iteri
      (fun u m -> if m then member_list := u :: !member_list)
      t.members.(v);
    send t ~src:v ~dst:cand.x (Invite { members = !member_list; cand })
  end

and start_phase t =
  if t.tree_size >= G.n (t.net.Net.graph) then begin
    t.finished <- true;
    t.on_done ()
  end
  else begin
    (* Broadcast Request; the root waits for its children like everyone. *)
    t.pending.(t.root) <- List.length t.children.(t.root);
    t.best.(t.root) <- None;
    if t.pending.(t.root) = 0 then report_up t t.root
    else
      List.iter
        (fun c -> send t ~src:t.root ~dst:c Request)
        t.children.(t.root)
  end

let handle t ~me ~src msg =
  match msg with
  | Request ->
    t.pending.(me) <- List.length t.children.(me);
    t.best.(me) <- None;
    if t.pending.(me) = 0 then report_up t me
    else List.iter (fun c -> send t ~src:me ~dst:c Request) t.children.(me)
  | Report cand ->
    ignore src;
    t.best.(me) <- better t.best.(me) cand;
    t.pending.(me) <- t.pending.(me) - 1;
    assert (t.pending.(me) >= 0);
    if t.pending.(me) = 0 then report_up t me
  | Add cand ->
    apply_add t me cand;
    List.iter (fun c -> send t ~src:me ~dst:c (Add cand)) t.children.(me)
  | Invite { members; cand } ->
    (* [me] = cand.x joins the tree. *)
    t.in_tree.(me) <- true;
    let n = G.n (t.net.Net.graph) in
    t.members.(me) <- Array.make n false;
    List.iter (fun u -> t.members.(me).(u) <- true) members;
    t.members.(me).(me) <- true;
    t.parent.(me) <- cand.y;
    t.parent_w.(me) <- cand.w;
    t.dist.(me) <- cand.label;
    send t ~src:me ~dst:cand.y Joined
  | Joined ->
    ignore src;
    if me = t.root then begin
      t.tree_size <- t.tree_size + 1;
      (match t.pending_commit with
      | Some _ -> assert false
      | None -> ());
      (* The root learns the new weight exactly. *)
      t.tree_weight <-
        (let w = ref 0 in
         Array.iteri (fun v p -> if p >= 0 && v <> t.root then w := !w + t.parent_w.(v))
           t.parent;
         !w);
      start_phase t
    end
    else send t ~src:me ~dst:t.parent.(me) Joined

let start t =
  t.net.Net.schedule t.root (fun () ->
      let n = G.n (t.net.Net.graph) in
      t.in_tree.(t.root) <- true;
      t.members.(t.root) <- Array.make n false;
      t.members.(t.root).(t.root) <- true;
      t.tree_size <- 1;
      t.dist.(t.root) <- 0;
      start_phase t)

let resume t =
  if t.suspended then begin
    t.suspended <- false;
    match t.pending_commit with
    | Some cand ->
      t.pending_commit <- None;
      commit t cand
    | None -> ()
  end

let finished t = t.finished

let tree t =
  if not t.finished then failwith "Centr_growth.tree: not finished";
  Csap_graph.Tree.of_parents ~root:t.root ~parents:t.parent
    ~weights:t.parent_w

let root_estimate t = t.spend

let distances t = Array.copy t.dist

type result = {
  grown_tree : Csap_graph.Tree.t;
  measures : Measures.t;
  phases : int;
  transport : Net.stats;
}

let run fn mode ?spec g ~root =
  G.check_root fn g root;
  let net = Net.make ?spec g in
  let t =
    create ~net ~inject:Fun.id ~mode ~root ~on_done:(fun () -> ()) ()
  in
  for v = 0 to G.n g - 1 do
    net.Net.set_handler v (fun ~src m -> handle t ~me:v ~src m)
  done;
  start t;
  ignore (net.Net.run ());
  if not (finished t) then failwith "Centr_growth.run: did not terminate";
  {
    grown_tree = tree t;
    measures = Measures.of_metrics (net.Net.metrics ());
    phases = t.phases;
    transport = net.Net.stats ();
  }

let run_mst ?spec g ~root = run "Centr_growth.run_mst" Mst ?spec g ~root

let run_spt ?spec g ~root = run "Centr_growth.run_spt" Spt ?spec g ~root
