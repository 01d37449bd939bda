module G = Csap_graph.Graph
module Partition = Csap_graph.Partition

(* The partitioned engine must reproduce the sequential engine's
   (time, seq) processing order exactly, but a global push counter is
   the one thing K free-running domains cannot maintain. The replacement
   is a deterministic event key that encodes the *push order* without a
   shared counter:

   - [Init i]: the i-th setup-time schedule. Setup pushes precede every
     runtime push, so [Init] sorts below everything else.
   - [Child {tp; pk; kth}]: the kth push made while processing the
     parent event (processed at time [tp], carrying key [pk]). Children
     compare by (tp, pk, kth): parents processed earlier pushed earlier,
     equal-time parents are themselves key-ordered, and one parent's
     pushes are ordered by birth rank — exactly the sequential counter's
     order, reconstructed structurally.
   - [Rank r]: at every window barrier the events about to be processed
     (the "batch") are merge-sorted across partitions and their chain
     keys normalised to dense global positions. This is the (time, seq)
     normalisation at merge points: it keeps chains shallow (a key never
     outlives its window) and gives later [Child] keys a bounded anchor.

   Keys only ever decide ties between equal-time events, and windows
   partition simulated time, so normalising a window's batch cannot
   reorder anything relative to a later window. *)
type key =
  | Init of int
  | Rank of int
  | Child of { tp : float; pk : key; kth : int }

let rec compare_key a b =
  match (a, b) with
  | Init a, Init b -> Int.compare a b
  | Init _, _ -> -1
  | _, Init _ -> 1
  | Rank a, Rank b -> Int.compare a b
  | Rank _, Child _ -> -1
  | Child _, Rank _ -> 1
  | Child a, Child b ->
    let c = Float.compare a.tp b.tp in
    if c <> 0 then c
    else
      let c = compare_key a.pk b.pk in
      if c <> 0 then c else Int.compare a.kth b.kth

(* Events in struct-of-arrays form, mirroring the sequential engine's
   {!Event_queue}: one event is one row across six parallel columns —
   time, key, tag (0 = deliver, 1 = local), src, dst and an untyped
   data slot (the message payload, or the local closure). Rows back
   both the per-partition event heaps and the cross-partition
   mailboxes, so an event moves between domains as six column writes
   and is never re-materialised as a record. The [key] column still
   holds boxed structural keys — a [Child] key allocates at push; that
   is the price of ordering without a shared counter and is documented
   in DESIGN.md §14. *)
module Rows = struct
  type t = {
    mutable times : float array;
    mutable keys : key array;
    mutable tags : int array;
    mutable srcs : int array;
    mutable dsts : int array;
    mutable datas : Obj.t array;
    mutable len : int;
  }

  (* Immediate filler keeps [datas] non-float-tagged; the dummy key lets
     vacated rows drop their reference to popped keys. *)
  let filler = Obj.repr 0
  let dummy_key = Init 0

  let create () =
    {
      times = [||];
      keys = [||];
      tags = [||];
      srcs = [||];
      dsts = [||];
      datas = [||];
      len = 0;
    }

  let[@inline never] grow r =
    let cap' = max 16 (2 * Array.length r.tags) in
    let col a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 r.len;
      a'
    in
    r.times <- col r.times 0.0;
    r.keys <- col r.keys dummy_key;
    r.tags <- col r.tags 0;
    r.srcs <- col r.srcs 0;
    r.dsts <- col r.dsts 0;
    r.datas <- col r.datas filler

  let push r ~time ~key ~tag ~src ~dst data =
    let i = r.len in
    if i = Array.length r.tags then grow r;
    Array.unsafe_set r.times i time;
    Array.unsafe_set r.keys i key;
    Array.unsafe_set r.tags i tag;
    Array.unsafe_set r.srcs i src;
    Array.unsafe_set r.dsts i dst;
    Array.unsafe_set r.datas i data;
    r.len <- i + 1

  (* Keeps the grown capacity; keys and data are wiped so popped values
     don't leak through the reused arrays. *)
  let clear r =
    Array.fill r.keys 0 r.len dummy_key;
    Array.fill r.datas 0 r.len filler;
    r.len <- 0
end

(* 4-ary min-heap over a [Rows.t] keyed by (time, key) — the partitioned
   twin of {!Event_queue}'s (time, seq) heap. The sift loops use
   unchecked access on indices < len (heap shape invariant). *)
module Pheap = struct
  type t = Rows.t

  let create () = Rows.create ()
  let is_empty (h : t) = h.Rows.len = 0

  let less (h : t) i j =
    let ti = Array.unsafe_get h.Rows.times i in
    let tj = Array.unsafe_get h.Rows.times j in
    ti < tj
    || ti = tj
       && compare_key
            (Array.unsafe_get h.Rows.keys i)
            (Array.unsafe_get h.Rows.keys j)
          < 0

  let swap (r : t) i j =
    let ft = Array.unsafe_get r.Rows.times i in
    Array.unsafe_set r.Rows.times i (Array.unsafe_get r.Rows.times j);
    Array.unsafe_set r.Rows.times j ft;
    let k = Array.unsafe_get r.Rows.keys i in
    Array.unsafe_set r.Rows.keys i (Array.unsafe_get r.Rows.keys j);
    Array.unsafe_set r.Rows.keys j k;
    let s = Array.unsafe_get r.Rows.tags i in
    Array.unsafe_set r.Rows.tags i (Array.unsafe_get r.Rows.tags j);
    Array.unsafe_set r.Rows.tags j s;
    let s = Array.unsafe_get r.Rows.srcs i in
    Array.unsafe_set r.Rows.srcs i (Array.unsafe_get r.Rows.srcs j);
    Array.unsafe_set r.Rows.srcs j s;
    let s = Array.unsafe_get r.Rows.dsts i in
    Array.unsafe_set r.Rows.dsts i (Array.unsafe_get r.Rows.dsts j);
    Array.unsafe_set r.Rows.dsts j s;
    let d = Array.unsafe_get r.Rows.datas i in
    Array.unsafe_set r.Rows.datas i (Array.unsafe_get r.Rows.datas j);
    Array.unsafe_set r.Rows.datas j d

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 4 in
      if less h i parent then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let len = h.Rows.len in
    let c = (4 * i) + 1 in
    if c < len then begin
      let best = c in
      let best = if c + 1 < len && less h (c + 1) best then c + 1 else best in
      let best = if c + 2 < len && less h (c + 2) best then c + 2 else best in
      let best = if c + 3 < len && less h (c + 3) best then c + 3 else best in
      if less h best i then begin
        swap h i best;
        sift_down h best
      end
    end

  let push h ~time ~key ~tag ~src ~dst data =
    Rows.push h ~time ~key ~tag ~src ~dst data;
    sift_up h (h.Rows.len - 1)

  (* Unchecked min readers: callers test [is_empty] first. *)
  let min_time (h : t) = Array.unsafe_get h.Rows.times 0
  let min_key (h : t) = Array.unsafe_get h.Rows.keys 0
  let min_tag (h : t) = Array.unsafe_get h.Rows.tags 0
  let min_src (h : t) = Array.unsafe_get h.Rows.srcs 0
  let min_dst (h : t) = Array.unsafe_get h.Rows.dsts 0
  let min_data (h : t) = Array.unsafe_get h.Rows.datas 0

  let drop_min (r : t) =
    let last = r.Rows.len - 1 in
    r.Rows.len <- last;
    r.Rows.times.(0) <- Array.unsafe_get r.Rows.times last;
    r.Rows.keys.(0) <- Array.unsafe_get r.Rows.keys last;
    r.Rows.tags.(0) <- Array.unsafe_get r.Rows.tags last;
    r.Rows.srcs.(0) <- Array.unsafe_get r.Rows.srcs last;
    r.Rows.dsts.(0) <- Array.unsafe_get r.Rows.dsts last;
    r.Rows.datas.(0) <- Array.unsafe_get r.Rows.datas last;
    Array.unsafe_set r.Rows.keys last Rows.dummy_key;
    Array.unsafe_set r.Rows.datas last Rows.filler;
    if last > 0 then sift_down r 0
end

let tag_deliver = 0
let tag_local = 1

(* A sense-reversing barrier with abort: a crashing worker poisons the
   barrier so its peers unwind instead of deadlocking on the next
   phase. *)
module Barrier = struct
  exception Aborted

  type t = {
    m : Mutex.t;
    cv : Condition.t;
    total : int;
    mutable arrived : int;
    mutable phase : int;
    mutable aborted : bool;
  }

  let create total =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      total;
      arrived = 0;
      phase = 0;
      aborted = false;
    }

  let await b =
    Mutex.lock b.m;
    if b.aborted then begin
      Mutex.unlock b.m;
      raise Aborted
    end;
    let ph = b.phase in
    b.arrived <- b.arrived + 1;
    if b.arrived = b.total then begin
      b.arrived <- 0;
      b.phase <- ph + 1;
      Condition.broadcast b.cv;
      Mutex.unlock b.m
    end
    else begin
      while b.phase = ph && not b.aborted do
        Condition.wait b.cv b.m
      done;
      let ab = b.aborted in
      Mutex.unlock b.m;
      if ab then raise Aborted
    end

  let abort b =
    Mutex.lock b.m;
    b.aborted <- true;
    Condition.broadcast b.cv;
    Mutex.unlock b.m
end

(* Per-partition execution state. Handlers receive the ctx of the domain
   processing them; everything mutable in here is touched only by that
   domain while the run is live. *)
type 'msg ctx = {
  p : int;
  pe : 'msg t;
  heap : Pheap.t;
  (* Scratch rows the current window's batch is popped into (sorted —
     heap pops ascend) and re-keyed in; reused across windows. *)
  batch : Rows.t;
  pmetrics : Metrics.t;
  (* One-slot output of [Delay.sample_into]. *)
  dscratch : float array;
  mutable clock : float;
  mutable cur_key : key;
  mutable kids : int;
  mutable rank_base : int;
  mutable processed : int;
  (* Lookahead, read at the root (node 1): [[|la; la|]] when static; when
     pre-sampled, a min tournament tree over the owned outgoing cut slots
     (node [i] = min of [2i], [2i+1]; leaves [c .. 2c-1] the next delays). *)
  la_tree : float array;
  mutable windows : int;
}

and 'msg t = {
  g : G.t;
  part : Partition.t;
  k : int;
  delay : Delay.t;
  (* Static window width, or [None] for an oracle: pre-sampled windows. *)
  lookahead : float option;
  (* Slot [2 * edge_id + dir] of an outgoing cut slot -> its leaf in the
     sender's [la_tree]; -1 elsewhere. Empty under a static lookahead. *)
  leaf_of : int array;
  handlers : ('msg ctx -> src:int -> 'msg -> unit) option array;
  (* Sender-owned directed-edge state, shared across domains without
     locks: slot [2 * edge_id + dir] is written only by the partition
     owning the sending endpoint, so all writes are disjoint words. *)
  send_counts : int array;
  last_delivery : float array;
  metrics : Metrics.t;
  mutable ctxs : 'msg ctx array;
  (* mailboxes.(src_p).(dst_p): flat SOA rows appended by src_p between
     barriers, drained column-to-column into dst_p's heap and cleared
     strictly on the other side of a barrier — single producer, single
     consumer, no lock, no per-event record. *)
  mailboxes : Rows.t array array;
  (* Barrier-published scratch: local queue minima and lookaheads, and
     per-partition (time, key) snapshots of the window batches for the
     merge-rank. The snapshot arrays are reused across windows (grown
     geometrically, [pub_lens] bounds the live prefix) and copied out of
     [ctx.batch] so the in-place re-key never races a peer's merge read.
     Written before a barrier, read after it. *)
  mins : float array;
  las : float array;
  pub_times : float array array;
  pub_keys : key array array;
  pub_lens : int array;
  fails : (exn * Printexc.raw_backtrace) option array;
  mutable barrier : Barrier.t;
  mutable inits : (int * float * key * Obj.t) list;
  mutable init_count : int;
  mutable running : bool;
}

let sender e dir = if dir = 0 then e.G.u else e.G.v

(* [delay]'s conservative lookahead. Static: messages across the cut
   carry at least the minimum delay lower bound over the cut edges, so a
   window of that width needs nothing from other partitions. A cut edge
   without a static bound (an oracle) makes it pre-sampled instead
   (Nicol): an oracle is a pure function of the message identity, so
   each cut slot's next delay is known before the message exists, and
   FIFO clamping keeps later messages on the slot from arriving earlier.
   A partition whose earliest event is at [m] sends nothing across the
   cut that arrives before [m + root]; here its outgoing cut slots are
   numbered as tree leaves, [counts.(p)] of them in partition [p].
   Returns [(lookahead, leaf_of, counts)]; fixed for the engine's life,
   since a Pengine serves one run. *)
let plan_lookahead g part ~k delay =
  let lookahead =
    Array.fold_left
      (fun la id ->
        match (la, Delay.lower_bound delay ~w:(G.edge g id).G.w) with
        | Some a, Some b -> Some (Float.min a b)
        | _ -> None)
      (Some infinity) (Partition.cut_edges part)
  in
  let counts = Array.make k 0 in
  let presampled = Option.is_none lookahead in
  let leaf_of = if presampled then Array.make (2 * G.m g) (-1) else [||] in
  if presampled then
    Array.iter
      (fun id ->
        for dir = 0 to 1 do
          let p = Partition.part_of part (sender (G.edge g id) dir) in
          leaf_of.((2 * id) + dir) <- counts.(p);
          counts.(p) <- counts.(p) + 1
        done)
      (Partition.cut_edges part);
  (lookahead, leaf_of, counts)

(* Re-sample leaf [slot] for its next message and repair the path to the
   root: O(log C), no allocation. A delay the oracle refuses ([Trace.recorded]
   past its recording) or that [send] would reject is +inf — if that message
   is ever sent, [send]'s own call raises the real error. *)
let refresh_leaf t ctx ~id ~dir ~w =
  let slot = (2 * id) + dir in
  let out = ctx.dscratch in
  (try
     Delay.sample_into t.delay ~edge_id:id ~dir ~nth:t.send_counts.(slot) ~w out
   with Invalid_argument _ -> out.(0) <- infinity);
  let d = out.(0) in
  let tree = ctx.la_tree in
  let i = ref ((Array.length tree / 2) + t.leaf_of.(slot)) in
  tree.(!i) <- (if d >= 0.0 && d < infinity then d else infinity);
  while !i > 1 do
    i := !i / 2;
    let a = tree.(2 * !i) and b = tree.((2 * !i) + 1) in
    tree.(!i) <- (if a <= b then a else b)
  done

(* Fill a pre-sampled tree from the current send counters (run start). *)
let fill_leaves t ctx =
  if Option.is_none t.lookahead then
    Array.iter
      (fun id ->
        let e = G.edge t.g id in
        for dir = 0 to 1 do
          if Partition.part_of t.part (sender e dir) = ctx.p then
            refresh_leaf t ctx ~id ~dir ~w:e.G.w
        done)
      (Partition.cut_edges t.part)

let check_delay delay =
  if not (Delay.order_independent delay) then
    invalid_arg
      "Pengine: Uniform/Jitter delays and adaptive models depend on the \
       global event order; partitioned execution requires an \
       order-independent model \
       (Exact, Scaled, Near_zero or a pure Oracle)"

let create ?(delay = Delay.Exact) ?partition ~domains g =
  if domains < 1 then invalid_arg "Pengine.create: domains >= 1 required";
  check_delay delay;
  let part =
    match partition with
    | Some p ->
      if Partition.graph_id p <> G.id g then
        invalid_arg "Pengine.create: partition built over a different graph";
      if Partition.k p <> domains then
        invalid_arg "Pengine.create: partition block count <> domains";
      p
    | None -> Partition.striped g ~k:domains
  in
  let k = domains in
  let lookahead, leaf_of, counts = plan_lookahead g part ~k delay in
  let t =
    {
      g;
      part;
      k;
      delay;
      lookahead;
      handlers = Array.make (G.n g) None;
      send_counts = Array.make (2 * G.m g) 0;
      last_delivery = Array.make (2 * G.m g) 0.0;
      metrics = Metrics.create ();
      ctxs = [||];
      mailboxes = Array.init k (fun _ -> Array.init k (fun _ -> Rows.create ()));
      leaf_of;
      mins = Array.make k infinity;
      las = Array.make k infinity;
      pub_times = Array.make k [||];
      pub_keys = Array.make k [||];
      pub_lens = Array.make k 0;
      fails = Array.make k None;
      barrier = Barrier.create k;
      inits = [];
      init_count = 0;
      running = false;
    }
  in
  t.ctxs <-
    Array.init k (fun p ->
        {
          p;
          pe = t;
          heap = Pheap.create ();
          batch = Rows.create ();
          pmetrics = Metrics.create ();
          dscratch = [| 0.0 |];
          clock = 0.0;
          cur_key = Init 0;
          kids = 0;
          rank_base = 0;
          processed = 0;
          la_tree =
            Array.make
              (max 2 (2 * counts.(p)))
              (Option.value lookahead ~default:infinity);
          windows = 0;
        });
  t

let graph t = t.g
let partition t = t.part
let domains t = t.k
let windows t = t.ctxs.(0).windows

let lookahead t =
  Array.iter (fill_leaves t) t.ctxs;
  Array.fold_left (fun la ctx -> Float.min la ctx.la_tree.(1)) infinity t.ctxs

let metrics t = t.metrics

let set_handler t v f = t.handlers.(v) <- Some f

let schedule t ~vertex ~delay f =
  if t.running then
    invalid_arg "Pengine.schedule: run in progress";
  if vertex < 0 || vertex >= G.n t.g then
    invalid_arg (Printf.sprintf "Pengine.schedule: vertex %d out of range" vertex);
  if not (delay >= 0.0 && delay < infinity) then
    invalid_arg
      (Printf.sprintf
         "Pengine.schedule: invalid delay %g (must be finite, >= 0)" delay);
  let owner = Partition.part_of t.part vertex in
  t.inits <- (owner, delay, Init t.init_count, Obj.repr f) :: t.inits;
  t.init_count <- t.init_count + 1

let now ctx = ctx.clock
let ctx_of t v = t.ctxs.(Partition.part_of t.part v)

(* The next push from the event being processed: (parent time, parent
   key, birth rank) — the structural (time, seq). *)
let child_key ctx =
  let key = Child { tp = ctx.clock; pk = ctx.cur_key; kth = ctx.kids } in
  ctx.kids <- ctx.kids + 1;
  key

let route ctx ~time ~key ~tag ~src ~dst data ~owner =
  if owner = ctx.p then Pheap.push ctx.heap ~time ~key ~tag ~src ~dst data
  else
    Rows.push ctx.pe.mailboxes.(ctx.p).(owner) ~time ~key ~tag ~src ~dst data

let send ctx ~src ~dst payload =
  let t = ctx.pe in
  if Partition.part_of t.part src <> ctx.p then
    invalid_arg
      (Printf.sprintf
         "Pengine.send: vertex %d is not owned by the executing partition %d"
         src ctx.p);
  let id = G.edge_id_between t.g src dst in
  if id < 0 then
    invalid_arg
      (Printf.sprintf "Pengine.send: no edge between %d and %d" src dst);
  let e = G.edge t.g id in
  let w = e.G.w in
  let dir = if src = e.G.u then 0 else 1 in
  let slot = (2 * id) + dir in
  let nth = t.send_counts.(slot) in
  t.send_counts.(slot) <- nth + 1;
  Metrics.add_send ctx.pmetrics ~w;
  Delay.sample_into t.delay ~edge_id:id ~dir ~nth ~w ctx.dscratch;
  let d = ctx.dscratch.(0) in
  if not (d >= 0.0 && d < infinity) then
    invalid_arg
      (Printf.sprintf
         "Pengine.send: delay model produced invalid delay %g on edge %d" d id);
  (* Same FIFO clamp as the sequential engine; the slot is sender-owned,
     so the read-modify-write is single-threaded. *)
  let arrival = Float.max (ctx.clock +. d) t.last_delivery.(slot) in
  t.last_delivery.(slot) <- arrival;
  (match t.lookahead with
  | None when t.leaf_of.(slot) >= 0 -> refresh_leaf t ctx ~id ~dir ~w
  | _ -> ());
  route ctx ~time:arrival ~key:(child_key ctx) ~tag:tag_deliver ~src ~dst
    (Obj.repr payload)
    ~owner:(Partition.part_of t.part dst)

let[@inline never] no_handler src dst =
  failwith
    (Printf.sprintf "Pengine: no handler at vertex %d (message sent from %d)"
       dst src)

let dispatch ctx ~time ~key ~tag ~src ~dst data =
  ctx.clock <- Float.max ctx.clock time;
  ctx.cur_key <- key;
  ctx.kids <- 0;
  if tag = tag_deliver then begin
    (match ctx.pe.handlers.(dst) with
    | Some f -> f ctx ~src (Obj.obj data)
    | None -> no_handler src dst);
    ctx.pmetrics.Metrics.last_delivery_time <- ctx.clock
  end
  else (Obj.obj data : _ ctx -> unit) ctx;
  ctx.processed <- ctx.processed + 1;
  let m = ctx.pmetrics in
  m.Metrics.events <- m.Metrics.events + 1;
  m.Metrics.completion_time <- ctx.clock

(* Pop the heap minimum into [dispatch] — fields first, then the row is
   dropped in place; no event value is ever rebuilt. *)
let dispatch_min ctx =
  let h = ctx.heap in
  let time = Pheap.min_time h in
  let key = Pheap.min_key h in
  let tag = Pheap.min_tag h in
  let src = Pheap.min_src h in
  let dst = Pheap.min_dst h in
  let data = Pheap.min_data h in
  Pheap.drop_min h;
  dispatch ctx ~time ~key ~tag ~src ~dst data

(* Batch-drain the mailboxes addressed to this partition: column reads
   on the sender's rows, column writes into the local heap — the events
   cross the domain boundary without being re-boxed into records. *)
let drain t ctx =
  for q = 0 to t.k - 1 do
    if q <> ctx.p then begin
      let r = t.mailboxes.(q).(ctx.p) in
      for i = 0 to r.Rows.len - 1 do
        Pheap.push ctx.heap ~time:r.Rows.times.(i) ~key:r.Rows.keys.(i)
          ~tag:r.Rows.tags.(i) ~src:r.Rows.srcs.(i) ~dst:r.Rows.dsts.(i)
          r.Rows.datas.(i)
      done;
      Rows.clear r
    end
  done

(* Pop the events this window will process — times below [t1] — into
   the scratch batch. Heap pops come out already (time, key)-sorted. *)
let pop_batch ctx ~t1 =
  let h = ctx.heap in
  while (not (Pheap.is_empty h)) && Pheap.min_time h < t1 do
    Rows.push ctx.batch ~time:(Pheap.min_time h) ~key:(Pheap.min_key h)
      ~tag:(Pheap.min_tag h) ~src:(Pheap.min_src h) ~dst:(Pheap.min_dst h)
      (Pheap.min_data h);
    Pheap.drop_min h
  done

(* Publish an immutable (time, key) snapshot of the batch for the
   merge-rank; the copy means the in-place re-key of [ctx.batch] cannot
   race a peer still reading. The publish arrays are reused and grown
   geometrically. *)
let publish_batch t ctx =
  let b = ctx.batch in
  let n = b.Rows.len in
  if Array.length t.pub_times.(ctx.p) < n then begin
    let cap = max 16 (max n (2 * Array.length t.pub_times.(ctx.p))) in
    t.pub_times.(ctx.p) <- Array.make cap 0.0;
    t.pub_keys.(ctx.p) <- Array.make cap Rows.dummy_key
  end;
  Array.blit b.Rows.times 0 t.pub_times.(ctx.p) 0 n;
  Array.blit b.Rows.keys 0 t.pub_keys.(ctx.p) 0 n;
  t.pub_lens.(ctx.p) <- n

(* The (time, seq) normalisation: K-way merge every partition's
   published batch snapshot (each one sorted) into the globally-agreed
   order, rewriting this partition's chain keys as dense ranks. Each
   partition runs the same merge over the same published data, so no
   further synchronisation is needed to agree on ranks. Keys are unique
   across partitions, so the merge order is total. *)
let rank_batch t ctx =
  let total = ref 0 in
  for q = 0 to t.k - 1 do
    total := !total + t.pub_lens.(q)
  done;
  let total = !total in
  if total > 0 then begin
    let cursors = Array.make t.k 0 in
    for pos = 0 to total - 1 do
      let best = ref (-1) in
      for q = 0 to t.k - 1 do
        if cursors.(q) < t.pub_lens.(q) then
          if !best < 0 then best := q
          else begin
            let cb = cursors.(!best) and cq = cursors.(q) in
            let tb = t.pub_times.(!best).(cb) and tq = t.pub_times.(q).(cq) in
            if
              tq < tb
              || tq = tb
                 && compare_key t.pub_keys.(q).(cq) t.pub_keys.(!best).(cb) < 0
            then best := q
          end
      done;
      let q = !best in
      if q = ctx.p then
        ctx.batch.Rows.keys.(cursors.(q)) <- Rank (ctx.rank_base + pos);
      cursors.(q) <- cursors.(q) + 1
    done;
    ctx.rank_base <- ctx.rank_base + total;
    (* Reinsert the re-keyed batch rows into the local heap. *)
    let b = ctx.batch in
    for i = 0 to b.Rows.len - 1 do
      Pheap.push ctx.heap ~time:b.Rows.times.(i) ~key:b.Rows.keys.(i)
        ~tag:b.Rows.tags.(i) ~src:b.Rows.srcs.(i) ~dst:b.Rows.dsts.(i)
        b.Rows.datas.(i)
    done;
    Rows.clear b
  end

let process_window ctx ~t1 =
  let h = ctx.heap in
  while (not (Pheap.is_empty h)) && Pheap.min_time h < t1 do
    dispatch_min ctx
  done

(* The window rule: [t1] is the least (earliest pending event + lookahead)
   over the partitions. A window that cannot advance the clock — a cut
   slot's next delay is 0, or [t0 +. la] rounds to [t0] — is refused. *)
let window_end t ~t0 =
  let q = ref 0 in
  for i = 1 to t.k - 1 do
    if t.mins.(i) +. t.las.(i) < t.mins.(!q) +. t.las.(!q) then q := i
  done;
  let t1 = t.mins.(!q) +. t.las.(!q) in
  if not (t1 > t0) then
    invalid_arg
      (Printf.sprintf
         "Pengine.run: empty window at time %g: lookahead %g does not \
          advance the clock"
         t0 t.las.(!q));
  t1

let main_loop t ctx =
  let b = t.barrier in
  ctx.windows <- 0;
  fill_leaves t ctx;
  let continue = ref true in
  while !continue do
    drain t ctx;
    t.mins.(ctx.p) <-
      (if Pheap.is_empty ctx.heap then infinity else Pheap.min_time ctx.heap);
    t.las.(ctx.p) <- ctx.la_tree.(1);
    Barrier.await b;
    let t0 = Array.fold_left Float.min infinity t.mins in
    if t0 = infinity then continue := false
    else begin
      let t1 = window_end t ~t0 in
      ctx.windows <- ctx.windows + 1;
      pop_batch ctx ~t1;
      publish_batch t ctx;
      Barrier.await b;
      rank_batch t ctx;
      process_window ctx ~t1;
      Barrier.await b
    end
  done

let worker t ctx =
  try main_loop t ctx with
  | Barrier.Aborted -> ()
  | e ->
    let bt = Printexc.get_raw_backtrace () in
    t.fails.(ctx.p) <- Some (e, bt);
    Barrier.abort t.barrier

let merge_metrics t =
  Metrics.reset t.metrics;
  let m = t.metrics in
  Array.iter
    (fun ctx ->
      let pm = ctx.pmetrics in
      m.Metrics.messages <- m.Metrics.messages + pm.Metrics.messages;
      m.Metrics.weighted_comm <-
        m.Metrics.weighted_comm + pm.Metrics.weighted_comm;
      m.Metrics.events <- m.Metrics.events + pm.Metrics.events;
      m.Metrics.completion_time <-
        Float.max m.Metrics.completion_time pm.Metrics.completion_time;
      m.Metrics.last_delivery_time <-
        Float.max m.Metrics.last_delivery_time pm.Metrics.last_delivery_time)
    t.ctxs

let run t =
  if t.running then invalid_arg "Pengine.run: run already in progress";
  t.running <- true;
  t.barrier <- Barrier.create t.k;
  Array.fill t.fails 0 t.k None;
  List.iter
    (fun (owner, time, key, f) ->
      Pheap.push t.ctxs.(owner).heap ~time ~key ~tag:tag_local ~src:(-1)
        ~dst:(-1) f)
    (List.rev t.inits);
  t.inits <- [];
  let others =
    Array.init (t.k - 1) (fun i ->
        let ctx = t.ctxs.(i + 1) in
        Domain.spawn (fun () -> worker t ctx))
  in
  worker t t.ctxs.(0);
  Array.iter Domain.join others;
  t.running <- false;
  merge_metrics t;
  (* Re-raise the lowest-numbered partition's failure. *)
  Array.iter
    (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
    t.fails;
  Array.fold_left (fun acc ctx -> acc + ctx.processed) 0 t.ctxs
