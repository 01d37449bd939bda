(* Cold call site of the deprecated tuple [Graph.neighbors]: the GHS
   state machine keeps per-port arrays aligned with the adjacency rows
   and indexes them randomly, which wants the shim's arrays. *)
[@@@alert "-deprecated"]

module Net = Csap_dsim.Net
module G = Csap_graph.Graph

(* Canonical distinct edge identities: the (w, u, v) triple. *)
type key = int * int * int

let inf_key : key = (max_int, max_int, max_int)

type msg =
  | Connect of int  (* level *)
  | Initiate of int * key * bool  (* level, fragment name, find? *)
  | Test of int * key
  | Accept
  | Reject
  | Report of key
  | Change_root

type node_state =
  | Sleeping
  | Find
  | Found

type edge_state =
  | Basic
  | Branch
  | Rejected

type result = {
  mst : Csap_graph.Tree.t;
  measures : Measures.t;
  max_level : int;
  transport : Net.stats;
}

(* The protocol core is engine-agnostic: transmissions go through an
   injected [send], so the hybrid algorithm can route them through the
   controller. *)
type t = {
  g : G.t;
  send : src:int -> dst:int -> msg -> unit;
  on_done : unit -> unit;
  handle_ : (me:int -> src:int -> msg -> unit);
  wake_ : int -> unit;
  finished_ : unit -> bool;
  mst_ : unit -> Csap_graph.Tree.t;
  max_level_ : unit -> int;
}

let handle t ~me ~src m = t.handle_ ~me ~src m
let wake t v = t.wake_ v
let finished t = t.finished_ ()
let mst t = t.mst_ ()
let max_level t = t.max_level_ ()

let create g ~send:send_fn ~on_done =
  let n = G.n g in
  if n < 2 then invalid_arg "Mst_ghs.create: n >= 2 required";
  if not (G.is_connected g) then invalid_arg "Mst_ghs.create: disconnected";
  (* Per-vertex protocol state; edge state is per adjacency index. *)
  let sn = Array.make n Sleeping in
  let ln = Array.make n 0 in
  let fn = Array.make n inf_key in
  let se = Array.init n (fun v -> Array.make (G.degree g v) Basic) in
  let best_edge = Array.make n (-1) in
  let best_wt = Array.make n inf_key in
  let test_edge = Array.make n (-1) in
  let in_branch = Array.make n (-1) in
  let find_count = Array.make n 0 in
  let version = Array.make n 0 in
  let deferred = Array.init n (fun _ -> Queue.create ()) in
  let max_level = ref 0 in
  let done_flag = ref false in
  let bump v = version.(v) <- version.(v) + 1 in
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
  let send v i m =
    let u, _, _ = (adj v).(i) in
    send_fn ~src:v ~dst:u m
  in
  (* Sorted adjacency order for the serial scan (lightest first). *)
  let scan_order =
    Array.init n (fun v ->
        let idx = Array.init (G.degree g v) Fun.id in
        Array.sort (fun a b -> compare (edge_key v a) (edge_key v b)) idx;
        idx)
  in
  let min_basic v =
    let order = scan_order.(v) in
    let rec scan i =
      if i >= Array.length order then -1
      else if se.(v).(order.(i)) = Basic then order.(i)
      else scan (i + 1)
    in
    scan 0
  in
  let rec wakeup v =
    assert (sn.(v) = Sleeping);
    (* Lightest incident edge becomes a branch; join at level 0. *)
    let m = scan_order.(v).(0) in
    se.(v).(m) <- Branch;
    ln.(v) <- 0;
    sn.(v) <- Found;
    find_count.(v) <- 0;
    bump v;
    send v m (Connect 0)

  and test v =
    let i = min_basic v in
    if i >= 0 then begin
      test_edge.(v) <- i;
      send v i (Test (ln.(v), fn.(v)))
    end
    else begin
      test_edge.(v) <- -1;
      report v
    end

  and report v =
    if find_count.(v) = 0 && test_edge.(v) = -1 then begin
      sn.(v) <- Found;
      bump v;
      send v in_branch.(v) (Report best_wt.(v))
    end

  and change_root v =
    let b = best_edge.(v) in
    if se.(v).(b) = Branch then send v b Change_root
    else begin
      send v b (Connect ln.(v));
      se.(v).(b) <- Branch;
      bump v
    end

  and process v src msg =
    let j = index_of v src in
    match msg with
    | Connect l ->
      if sn.(v) = Sleeping then wakeup v;
      if l < ln.(v) then begin
        (* Absorb the lower-level fragment. *)
        se.(v).(j) <- Branch;
        bump v;
        send v j (Initiate (ln.(v), fn.(v), sn.(v) = Find));
        if sn.(v) = Find then find_count.(v) <- find_count.(v) + 1
      end
      else if se.(v).(j) = Basic then Queue.push (src, msg) deferred.(v)
      else begin
        (* Merge: the shared edge becomes the new core. *)
        send v j (Initiate (ln.(v) + 1, edge_key v j, true))
      end
    | Initiate (l, f, find) ->
      ln.(v) <- l;
      fn.(v) <- f;
      sn.(v) <- (if find then Find else Found);
      in_branch.(v) <- j;
      best_edge.(v) <- -1;
      best_wt.(v) <- inf_key;
      if l > !max_level then max_level := l;
      bump v;
      Array.iteri
        (fun i _ ->
          if i <> j && se.(v).(i) = Branch then begin
            send v i (Initiate (l, f, find));
            if find then find_count.(v) <- find_count.(v) + 1
          end)
        se.(v);
      if find then test v
    | Test (l, f) ->
      if sn.(v) = Sleeping then wakeup v;
      if l > ln.(v) then Queue.push (src, msg) deferred.(v)
      else if f <> fn.(v) then send v j Accept
      else begin
        if se.(v).(j) = Basic then begin
          se.(v).(j) <- Rejected;
          bump v
        end;
        if test_edge.(v) <> j then send v j Reject else test v
      end
    | Accept ->
      test_edge.(v) <- -1;
      let k = edge_key v j in
      if compare k best_wt.(v) < 0 then begin
        best_wt.(v) <- k;
        best_edge.(v) <- j
      end;
      report v
    | Reject ->
      if se.(v).(j) = Basic then begin
        se.(v).(j) <- Rejected;
        bump v
      end;
      test v
    | Report w ->
      if j <> in_branch.(v) then begin
        (* From a child subtree. *)
        find_count.(v) <- find_count.(v) - 1;
        if compare w best_wt.(v) < 0 then begin
          best_wt.(v) <- w;
          best_edge.(v) <- j
        end;
        report v
      end
      else if sn.(v) = Find then Queue.push (src, msg) deferred.(v)
      else if compare w best_wt.(v) > 0 then change_root v
      else if w = inf_key && best_wt.(v) = inf_key then begin
        if not !done_flag then begin
          done_flag := true;
          on_done ()
        end
      end
      (* Otherwise the other core endpoint holds the strictly better edge
         and is the one that performs the change of root. *)
    | Change_root -> change_root v
  in
  let drain v =
    let changed = ref true in
    while !changed do
      changed := false;
      let pending = Queue.length deferred.(v) in
      for _ = 1 to pending do
        let src, msg = Queue.pop deferred.(v) in
        let ver = version.(v) in
        process v src msg;
        if version.(v) <> ver then changed := true
      done
    done
  in
  let extract_mst () =
    if not !done_flag then failwith "Mst_ghs.mst: not finished";
    (* The Branch edges form the MST. *)
    let branch_edges = Hashtbl.create n in
    for v = 0 to n - 1 do
      Array.iteri
        (fun i s ->
          if s = Branch then begin
            let u, w, _ = (adj v).(i) in
            Hashtbl.replace branch_edges (min v u, max v u, w) ()
          end)
        se.(v)
    done;
    let tree_graph =
      G.create ~n
        (Hashtbl.fold (fun (u, v, w) () acc -> (u, v, w) :: acc) branch_edges
           [])
    in
    Csap_graph.Traversal.spanning_tree_dfs tree_graph ~root:0
  in
  {
    g;
    send = send_fn;
    on_done;
    handle_ =
      (fun ~me ~src m ->
        process me src m;
        drain me);
    wake_ = (fun v -> if sn.(v) = Sleeping then wakeup v);
    finished_ = (fun () -> !done_flag);
    mst_ = extract_mst;
    max_level_ = (fun () -> !max_level);
  }

(* The state machine above assumes exactly-once FIFO links — what the
   shim restores over a faulty engine — and all its state is stable
   storage under the crash model, so no crash-specific protocol logic is
   needed. Waking every vertex from one bootstrap is sequential-only,
   hence no [?domains]. *)
let run ?delay ?faults ?reliable g =
  let net = Net.make ?reliable ?delay ?faults g in
  let stats = Net.monitor net in
  let t = create g ~send:net.Net.send ~on_done:(fun () -> ()) in
  for v = 0 to G.n g - 1 do
    net.Net.set_handler v (fun ~src m -> handle t ~me:v ~src m)
  done;
  net.Net.schedule 0 (fun () ->
      for v = 0 to G.n g - 1 do
        wake t v
      done);
  ignore (net.Net.run ());
  if not (finished t) then failwith "Mst_ghs.run: did not terminate";
  {
    mst = mst t;
    measures = Measures.of_metrics (net.Net.metrics ());
    max_level = max_level t;
    transport = stats ();
  }
