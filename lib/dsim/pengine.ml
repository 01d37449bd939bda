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
    let cap = Array.length r.tags in
    let cap' = max 16 (2 * cap) in
    let times = Array.make cap' 0.0 in
    let keys = Array.make cap' dummy_key in
    let tags = Array.make cap' 0 in
    let srcs = Array.make cap' 0 in
    let dsts = Array.make cap' 0 in
    let datas = Array.make cap' filler in
    Array.blit r.times 0 times 0 r.len;
    Array.blit r.keys 0 keys 0 r.len;
    Array.blit r.tags 0 tags 0 r.len;
    Array.blit r.srcs 0 srcs 0 r.len;
    Array.blit r.dsts 0 dsts 0 r.len;
    Array.blit r.datas 0 datas 0 r.len;
    r.times <- times;
    r.keys <- keys;
    r.tags <- tags;
    r.srcs <- srcs;
    r.dsts <- dsts;
    r.datas <- datas

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
  let clear = Rows.clear

  let less (h : t) i j =
    let ti = Array.unsafe_get h.Rows.times i in
    let tj = Array.unsafe_get h.Rows.times j in
    ti < tj
    || ti = tj
       && compare_key
            (Array.unsafe_get h.Rows.keys i)
            (Array.unsafe_get h.Rows.keys j)
          < 0

  let swap (h : t) i j =
    let r = h in
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

  let drop_min (h : t) =
    let r = h in
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
    if last > 0 then sift_down h 0
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
  mutable clock : float;
  mutable cur_key : key;
  mutable kids : int;
  mutable rank_base : int;
  mutable processed : int;
}

and 'msg t = {
  g : G.t;
  part : Partition.t;
  k : int;
  mutable delay : Delay.t;
  mutable lookahead : float;
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
  (* Barrier-published scratch: local queue minima, per-instant minimum
     keys (lockstep sub-rounds), and per-partition (time, key) snapshots
     of the window batches for the merge-rank. The snapshot arrays are
     reused across windows (grown geometrically, [pub_lens] bounds the
     live prefix) and copied out of [ctx.batch] so the in-place re-key
     never races a peer's merge read. Written before a barrier, read
     after it. *)
  mins : float array;
  minkeys : key option array;
  pub_times : float array array;
  pub_keys : key array array;
  pub_lens : int array;
  fails : (exn * Printexc.raw_backtrace) option array;
  mutable barrier : Barrier.t;
  mutable inits : (int * float * key * Obj.t) list;
  mutable init_count : int;
  mutable running : bool;
}

(* Conservative lookahead: cross-partition messages carry at least the
   minimum static delay lower bound over the cut edges, so a window of
   that width can run without hearing from other partitions. Any
   unbounded cut edge forces lockstep (zero-width) windows. *)
let lookahead_for g part delay =
  let la = ref infinity in
  (try
     Array.iter
       (fun id ->
         match Delay.lower_bound delay ~w:(G.edge g id).G.w with
         | None ->
           la := 0.0;
           raise Exit
         | Some b -> if b < !la then la := b)
       (Partition.cut_edges part)
   with Exit -> ());
  !la

let check_delay delay =
  if not (Delay.order_independent delay) then
    invalid_arg
      "Pengine: Uniform/Jitter delays sample shared RNG state in global \
       order; partitioned execution requires an order-independent model \
       (Exact, Scaled, Near_zero or a pure Oracle)"

(* Defense in depth behind Protocol.validate: an adaptive adversary's
   decisions depend on the global event order, which the partitioned
   loop does not preserve inside a window — so an ambient adversary
   scope must never silently leak into a Pengine run. *)
let check_no_adaptive what =
  match Adversary.ambient () with
  | None -> ()
  | Some a ->
    invalid_arg
      (Printf.sprintf
         "Pengine.%s: adaptive adversary %S is order-dependent; partitioned \
          execution requires an oblivious schedule (replay its decision \
          trace instead)"
         what a.Adversary.name)

let create ?(delay = Delay.Exact) ?partition ~domains g =
  if domains < 1 then invalid_arg "Pengine.create: domains >= 1 required";
  check_delay delay;
  check_no_adaptive "create";
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
  let t =
    {
      g;
      part;
      k;
      delay;
      lookahead = lookahead_for g part delay;
      handlers = Array.make (G.n g) None;
      send_counts = Array.make (2 * G.m g) 0;
      last_delivery = Array.make (2 * G.m g) 0.0;
      metrics = Metrics.create ();
      ctxs = [||];
      mailboxes = Array.init k (fun _ -> Array.init k (fun _ -> Rows.create ()));
      mins = Array.make k infinity;
      minkeys = Array.make k None;
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
          clock = 0.0;
          cur_key = Init 0;
          kids = 0;
          rank_base = 0;
          processed = 0;
        });
  t

let graph t = t.g
let partition t = t.part
let domains t = t.k
let lookahead t = t.lookahead
let metrics t = t.metrics

let set_handler t v f = t.handlers.(v) <- Some f

let schedule t ~vertex ~delay f =
  if t.running then
    invalid_arg "Pengine.schedule: run in progress (use schedule_ctx)";
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
  let d = Delay.sample_on t.delay ~edge_id:id ~dir ~nth ~w in
  if not (d >= 0.0 && d < infinity) then
    invalid_arg
      (Printf.sprintf
         "Pengine.send: delay model produced invalid delay %g on edge %d" d id);
  (* Same FIFO clamp as the sequential engine; the slot is sender-owned,
     so the read-modify-write is single-threaded. *)
  let arrival = Float.max (ctx.clock +. d) t.last_delivery.(slot) in
  t.last_delivery.(slot) <- arrival;
  route ctx ~time:arrival ~key:(child_key ctx) ~tag:tag_deliver ~src ~dst
    (Obj.repr payload)
    ~owner:(Partition.part_of t.part dst)

let schedule_ctx ctx ~vertex ~delay f =
  let t = ctx.pe in
  if vertex < 0 || vertex >= G.n t.g then
    invalid_arg
      (Printf.sprintf "Pengine.schedule_ctx: vertex %d out of range" vertex);
  if not (delay >= 0.0 && delay < infinity) then
    invalid_arg
      (Printf.sprintf
         "Pengine.schedule_ctx: invalid delay %g (must be finite, >= 0)" delay);
  route ctx ~time:(ctx.clock +. delay) ~key:(child_key ctx) ~tag:tag_local
    ~src:(-1) ~dst:(-1) (Obj.repr f)
    ~owner:(Partition.part_of t.part vertex)

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
      let n = r.Rows.len in
      if n > 0 then begin
        for i = 0 to n - 1 do
          Pheap.push ctx.heap ~time:r.Rows.times.(i) ~key:r.Rows.keys.(i)
            ~tag:r.Rows.tags.(i) ~src:r.Rows.srcs.(i) ~dst:r.Rows.dsts.(i)
            r.Rows.datas.(i)
        done;
        Rows.clear r
      end
    end
  done

let local_min ctx =
  if Pheap.is_empty ctx.heap then infinity else Pheap.min_time ctx.heap

(* Pop the events this window will process into the scratch batch:
   times in [t0, t1) for positive lookahead, exactly t0 for lockstep.
   Heap pops come out already (time, key)-sorted. *)
let pop_batch t ctx ~t0 ~t1 =
  let h = ctx.heap in
  let continue = ref true in
  while !continue do
    if Pheap.is_empty h then continue := false
    else
      let time = Pheap.min_time h in
      if if t.lookahead > 0.0 then time < t1 else time <= t0 then begin
        Rows.push ctx.batch ~time ~key:(Pheap.min_key h) ~tag:(Pheap.min_tag h)
          ~src:(Pheap.min_src h) ~dst:(Pheap.min_dst h) (Pheap.min_data h);
        Pheap.drop_min h
      end
      else continue := false
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

(* One lockstep sub-round bound: the smallest instant-t0 key any *other*
   partition may still process. Everything a peer sends in the future
   carries a key above its current minimum (children always outrank
   their parents), so processing strictly below this bound is safe. *)
let other_min_key t ctx =
  let bound = ref None in
  for q = 0 to t.k - 1 do
    if q <> ctx.p then
      match t.minkeys.(q) with
      | None -> ()
      | Some k -> (
        match !bound with
        | None -> bound := Some k
        | Some b -> if compare_key k b < 0 then bound := Some k)
  done;
  !bound

let process_window ctx ~t1 =
  let h = ctx.heap in
  let continue = ref true in
  while !continue do
    if Pheap.is_empty h || Pheap.min_time h >= t1 then continue := false
    else dispatch_min ctx
  done

let process_instant ctx ~t0 ~bound =
  let h = ctx.heap in
  let continue = ref true in
  while !continue do
    if
      (not (Pheap.is_empty h))
      && Pheap.min_time h = t0
      && (match bound with
         | None -> true
         | Some b -> compare_key (Pheap.min_key h) b < 0)
    then dispatch_min ctx
    else continue := false
  done

let minkey_at ctx ~t0 =
  if (not (Pheap.is_empty ctx.heap)) && Pheap.min_time ctx.heap = t0 then
    Some (Pheap.min_key ctx.heap)
  else None

(* Zero-lookahead windows: a single simulated instant, processed in
   global key order via sub-rounds. Each sub-round publishes every
   partition's minimum pending key at t0; a partition may process
   strictly below the minimum over its peers (the conservative null
   message in key space), then mailboxes are exchanged in case a
   zero-delay cross edge landed new work at the same instant. The
   partition holding the global minimum always progresses, so the loop
   terminates whenever the sequential run does. *)
let run_instant t ctx ~t0 =
  let b = t.barrier in
  let continue = ref true in
  while !continue do
    t.minkeys.(ctx.p) <- minkey_at ctx ~t0;
    Barrier.await b;
    let any = Array.exists Option.is_some t.minkeys in
    if not any then continue := false
    else begin
      let bound = other_min_key t ctx in
      process_instant ctx ~t0 ~bound;
      Barrier.await b;
      drain t ctx
    end
  done

let main_loop t ctx =
  let b = t.barrier in
  let continue = ref true in
  while !continue do
    drain t ctx;
    t.mins.(ctx.p) <- local_min ctx;
    Barrier.await b;
    let t0 = Array.fold_left Float.min infinity t.mins in
    if t0 = infinity then continue := false
    else begin
      let t1 = t0 +. t.lookahead in
      pop_batch t ctx ~t0 ~t1;
      publish_batch t ctx;
      Barrier.await b;
      rank_batch t ctx;
      if t.lookahead > 0.0 then begin
        process_window ctx ~t1;
        Barrier.await b
      end
      else run_instant t ctx ~t0
    end
  done

(* GC statistics are domain-local in OCaml 5, so each worker snapshots
   its own counters around the run and banks the delta into its
   per-partition metrics — captured even when the run unwinds through
   the barrier. *)
let worker t ctx =
  (* [Gc.minor_words ()] reads the allocation pointer; quick_stat's
     minor_words only advances at minor collections (OCaml 5.1). *)
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  (try main_loop t ctx with
  | Barrier.Aborted -> ()
  | e ->
    let bt = Printexc.get_raw_backtrace () in
    t.fails.(ctx.p) <- Some (e, bt);
    Barrier.abort t.barrier);
  let g1 = Gc.quick_stat () in
  Metrics.add_alloc ctx.pmetrics
    ~minor_words:(Gc.minor_words () -. w0)
    ~promoted_words:(g1.Gc.promoted_words -. g0.Gc.promoted_words)
    ~major_collections:(g1.Gc.major_collections - g0.Gc.major_collections)

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
        Float.max m.Metrics.last_delivery_time pm.Metrics.last_delivery_time;
      (* Allocation is a sum over domains, not a max. *)
      Metrics.add_alloc m ~minor_words:pm.Metrics.alloc_minor_words
        ~promoted_words:pm.Metrics.alloc_promoted_words
        ~major_collections:pm.Metrics.alloc_major_collections)
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
  let failed = ref None in
  for p = t.k - 1 downto 0 do
    match t.fails.(p) with Some f -> failed := Some f | None -> ()
  done;
  (match !failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.fold_left (fun acc ctx -> acc + ctx.processed) 0 t.ctxs

let reset ?delay t =
  if t.running then invalid_arg "Pengine.reset: run in progress";
  check_no_adaptive "reset";
  (match delay with
  | Some d ->
    check_delay d;
    t.delay <- d;
    t.lookahead <- lookahead_for t.g t.part d
  | None -> ());
  Array.fill t.handlers 0 (Array.length t.handlers) None;
  Array.fill t.send_counts 0 (Array.length t.send_counts) 0;
  Array.fill t.last_delivery 0 (Array.length t.last_delivery) 0.0;
  Metrics.reset t.metrics;
  Array.iter
    (fun ctx ->
      Pheap.clear ctx.heap;
      Rows.clear ctx.batch;
      Metrics.reset ctx.pmetrics;
      ctx.clock <- 0.0;
      ctx.cur_key <- Init 0;
      ctx.kids <- 0;
      ctx.rank_base <- 0;
      ctx.processed <- 0)
    t.ctxs;
  Array.iter (fun row -> Array.iter Rows.clear row) t.mailboxes;
  Array.fill t.mins 0 t.k infinity;
  Array.fill t.minkeys 0 t.k None;
  (* Publish snapshots: drop stale key references, keep the capacity. *)
  for p = 0 to t.k - 1 do
    Array.fill t.pub_keys.(p) 0 (Array.length t.pub_keys.(p)) Rows.dummy_key;
    t.pub_lens.(p) <- 0
  done;
  Array.fill t.fails 0 t.k None;
  t.inits <- [];
  t.init_count <- 0
