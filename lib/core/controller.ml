module Net = Csap_dsim.Net
module G = Csap_graph.Graph

type 'm wire =
  | Payload of 'm
  | Request of int
  | Grant of int

type ('m, 'outer) t = {
  send : src:int -> dst:int -> 'outer -> unit;
  inject : 'm wire -> 'outer;
  g : G.t;
  is_root : bool array;  (* the initiators, each rooting its own tree *)
  on_abort : unit -> unit;
  bank : int array;  (* permits held locally *)
  exec_parent : int array;  (* -1 = not yet in the execution tree *)
  queue : (int * 'm * int) Queue.t array;  (* pending (dst, msg, cost) *)
  child_requests : (int * int) Queue.t array;  (* buffered (child, amount) *)
  outstanding : bool array;  (* one request in flight per vertex *)
  suspend : bool;  (* park instead of aborting when over threshold *)
  (* Per-root accounting (indexed by vertex, meaningful at roots). *)
  threshold_at : int array;
  unmet_at : int array;  (* refused root deficit, retried on raise *)
  consumed_at : int array;  (* root permit counters *)
  mutable spent : int;
  mutable aborted : bool;
}

let create_multi ~net ~inject ~initiators ?(suspend = false)
    ?(on_abort = fun () -> ()) () =
  let g = net.Net.graph in
  let n = G.n g in
  if initiators = [] then invalid_arg "Controller.create_multi: no initiators";
  let is_root = Array.make n false in
  let threshold_at = Array.make n 0 in
  List.iter
    (fun (root, threshold) ->
      if threshold < 1 then
        invalid_arg "Controller.create_multi: threshold >= 1";
      if is_root.(root) then
        invalid_arg "Controller.create_multi: duplicate initiator";
      is_root.(root) <- true;
      threshold_at.(root) <- threshold)
    initiators;
  {
    send = net.Net.send;
    inject;
    g;
    is_root;
    suspend;
    threshold_at;
    unmet_at = Array.make n 0;
    on_abort;
    bank = Array.make n 0;
    exec_parent = Array.make n (-1);
    queue = Array.init n (fun _ -> Queue.create ());
    child_requests = Array.init n (fun _ -> Queue.create ());
    outstanding = Array.make n false;
    consumed_at = Array.make n 0;
    spent = 0;
    aborted = false;
  }
(* Roots mint permits lazily via [root_grant], so the per-root counters
   cover every permit in circulation. *)

let create ~net ~inject ~initiator ~threshold ?(suspend = false)
    ?(on_abort = fun () -> ()) () =
  create_multi ~net ~inject ~initiators:[ (initiator, threshold) ]
    ~suspend ~on_abort ()

(* Flush v's buffered protocol sends while the bank covers them. *)
let rec flush t v =
  while
    (not (Queue.is_empty t.queue.(v)))
    &&
    let _, _, cost = Queue.peek t.queue.(v) in
    cost <= t.bank.(v)
  do
    let dst, msg, cost = Queue.pop t.queue.(v) in
    t.bank.(v) <- t.bank.(v) - cost;
    t.spent <- t.spent + cost;
    t.send ~src:v ~dst (t.inject (Payload msg))
  done;
  if not (Queue.is_empty t.queue.(v)) then request_more t v

(* Serve buffered child requests while the bank covers them. Grants are
   padded up to twice the request when the bank allows: the slack seeds
   the banks down the tree so later requests are absorbed locally instead
   of walking to the root each time. Padding only redistributes permits
   already minted, so the threshold accounting is unchanged. *)
and serve_children t v =
  while
    (not (Queue.is_empty t.child_requests.(v)))
    &&
    let _, amount = Queue.peek t.child_requests.(v) in
    amount <= t.bank.(v)
  do
    let child, amount = Queue.pop t.child_requests.(v) in
    let give = min t.bank.(v) (2 * amount) in
    t.bank.(v) <- t.bank.(v) - give;
    t.send ~src:v ~dst:child (t.inject (Grant give))
  done;
  if not (Queue.is_empty t.child_requests.(v)) then request_more t v

(* Ask the execution-tree parent for the whole current deficit in one
   aggregate request. Aggregation is exact, so the permits minted at the
   root never exceed the protocol's true demand and the threshold is only
   hit by genuinely divergent executions. *)
and request_more t v =
  if not t.outstanding.(v) then begin
    let deficit_sends =
      Queue.fold (fun acc (_, _, cost) -> acc + cost) 0 t.queue.(v)
    in
    let deficit_children =
      Queue.fold (fun acc (_, amount) -> acc + amount) 0 t.child_requests.(v)
    in
    let deficit = deficit_sends + deficit_children - t.bank.(v) in
    if deficit > 0 then begin
      if t.is_root.(v) then root_grant t v deficit
      else begin
        t.outstanding.(v) <- true;
        t.send ~src:v ~dst:t.exec_parent.(v) (t.inject (Request deficit))
      end
    end
  end

(* A root mints permits against its threshold; beyond it, abort (or, in
   suspend mode, park the deficit until the threshold is raised). *)
and root_grant t root amount =
  if t.consumed_at.(root) + amount > t.threshold_at.(root) then begin
    t.unmet_at.(root) <- amount;
    if t.suspend then t.on_abort ()
    else if not t.aborted then begin
      t.aborted <- true;
      t.on_abort ()
    end
  end
  else begin
    t.unmet_at.(root) <- 0;
    (* Pad at the root only: the doubled grant leaves slack in the banks
       along the tree, so refill chains amortize instead of recurring per
       message; consumed <= threshold still holds, and with a correct
       threshold of 2 c_pi the padding (at most 2x true demand) never
       triggers an abort. *)
    let padded =
      min (2 * amount) (t.threshold_at.(root) - t.consumed_at.(root))
    in
    t.consumed_at.(root) <- t.consumed_at.(root) + padded;
    t.bank.(root) <- t.bank.(root) + padded;
    flush t root;
    serve_children t root
  end

let send t ~src ~dst msg =
  match G.edge_between t.g src dst with
  | None -> invalid_arg "Controller.send: no such edge"
  | Some (cost, _) ->
    Queue.push (dst, msg, cost) t.queue.(src);
    flush t src

let handle t ~me ~src wire =
  match wire with
  | Payload m ->
    if (not t.is_root.(me)) && t.exec_parent.(me) < 0 then
      t.exec_parent.(me) <- src;
    Some m
  | Request amount ->
    (* Serve from the bank; [serve_children] escalates (or mints, at the
       root) when the bank runs dry. An exhausted root simply refuses to
       mint, which stalls exactly its own tree: every vertex below it ends
       up with one forever-outstanding request and goes quiet, while other
       initiators' computations are untouched. *)
    Queue.push (src, amount) t.child_requests.(me);
    serve_children t me;
    None
  | Grant amount ->
    t.outstanding.(me) <- false;
    t.bank.(me) <- t.bank.(me) + amount;
    flush t me;
    serve_children t me;
    None

let raise_threshold t extra =
  if extra < 0 then invalid_arg "Controller.raise_threshold: negative";
  Array.iteri
    (fun root is_root ->
      if is_root then begin
        t.threshold_at.(root) <- t.threshold_at.(root) + extra;
        if t.unmet_at.(root) > 0 then begin
          let amount = t.unmet_at.(root) in
          t.unmet_at.(root) <- 0;
          root_grant t root amount
        end;
        (* Re-examine buffered work at the root under the new budget. *)
        flush t root;
        serve_children t root
      end)
    t.is_root

let sum_roots t arr =
  let acc = ref 0 in
  Array.iteri (fun v is_root -> if is_root then acc := !acc + arr.(v)) t.is_root;
  !acc

let threshold t = sum_roots t t.threshold_at
let demand t = sum_roots t t.consumed_at + sum_roots t t.unmet_at
let consumed t = sum_roots t t.consumed_at
let spent t = t.spent
let aborted t = t.aborted

let pending_sends t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queue
