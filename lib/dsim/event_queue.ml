(* A 4-ary min-heap over (time, seq) keys in full structure-of-arrays
   layout: times in a flat [float array] (unboxed), seq/src/dst/epoch in
   parallel [int array]s, payloads in an untyped [Obj.t array]. A
   delivery push is six unboxed row writes plus a sift — zero heap
   words — where the previous design allocated a [Deliver] record per
   message. Local closures go through a side slot table ([locals] plus
   a free-list stack) and are encoded in the rows as [src = -1] with
   the slot index in [dst], so the heap arrays stay homogeneous.

   The payload column is created with an immediate filler, giving the
   array a non-float tag; stores and reads are generic (pointer-sized),
   so any ['msg] — including boxed floats — round-trips unchanged.

   Compared with a generic binary heap of boxed event records this
   removes every per-event allocation on the push/pop path, replaces
   closure-driven comparison with inline primitive compares, and halves
   the sift depth — the engine's event loop spends most of its time
   here. The sift loops use unchecked array access; every index is
   < len by the heap shape invariant. *)

type 'msg t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable srcs : int array;  (* -1 marks a local event *)
  mutable dsts : int array;  (* local events: slot index into [locals] *)
  mutable epochs : int array;
  mutable data : Obj.t array;
  mutable len : int;
  (* Side table for local-event closures; [free] is a stack of vacant
     slot indices below [nlocals]. *)
  mutable locals : (unit -> unit) array;
  mutable free : int array;
  mutable nfree : int;
  mutable nlocals : int;
}

(* Immediate filler: keeps [data] non-float-tagged and lets vacated rows
   drop their reference to popped payloads. *)
let filler = Obj.repr 0
let no_local () = ()

let create ?(capacity = 16) () =
  let cap = max 1 capacity in
  {
    times = Array.make cap 0.0;
    seqs = Array.make cap 0;
    srcs = Array.make cap 0;
    dsts = Array.make cap 0;
    epochs = Array.make cap 0;
    data = Array.make cap filler;
    len = 0;
    locals = [||];
    free = [||];
    nfree = 0;
    nlocals = 0;
  }

let size t = t.len
let is_empty t = t.len = 0

let[@inline never] grow t =
  let cap = Array.length t.seqs in
  let cap' = max 16 (2 * cap) in
  let times = Array.make cap' 0.0 in
  let seqs = Array.make cap' 0 in
  let srcs = Array.make cap' 0 in
  let dsts = Array.make cap' 0 in
  let epochs = Array.make cap' 0 in
  let data = Array.make cap' filler in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.srcs 0 srcs 0 t.len;
  Array.blit t.dsts 0 dsts 0 t.len;
  Array.blit t.epochs 0 epochs 0 t.len;
  Array.blit t.data 0 data 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.srcs <- srcs;
  t.dsts <- dsts;
  t.epochs <- epochs;
  t.data <- data

(* Strict (time, seq) lexicographic order; seqs are distinct, so this is a
   total order and the queue is deterministic. *)
let[@inline] less t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj
  || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let[@inline] swap t i j =
  let ft = Array.unsafe_get t.times i in
  Array.unsafe_set t.times i (Array.unsafe_get t.times j);
  Array.unsafe_set t.times j ft;
  let s = Array.unsafe_get t.seqs i in
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.seqs j s;
  let s = Array.unsafe_get t.srcs i in
  Array.unsafe_set t.srcs i (Array.unsafe_get t.srcs j);
  Array.unsafe_set t.srcs j s;
  let s = Array.unsafe_get t.dsts i in
  Array.unsafe_set t.dsts i (Array.unsafe_get t.dsts j);
  Array.unsafe_set t.dsts j s;
  let s = Array.unsafe_get t.epochs i in
  Array.unsafe_set t.epochs i (Array.unsafe_get t.epochs j);
  Array.unsafe_set t.epochs j s;
  let d = Array.unsafe_get t.data i in
  Array.unsafe_set t.data i (Array.unsafe_get t.data j);
  Array.unsafe_set t.data j d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let len = t.len in
  let c = (4 * i) + 1 in
  if c < len then begin
    let best = c in
    let best = if c + 1 < len && less t (c + 1) best then c + 1 else best in
    let best = if c + 2 < len && less t (c + 2) best then c + 2 else best in
    let best = if c + 3 < len && less t (c + 3) best then c + 3 else best in
    if less t best i then begin
      swap t i best;
      sift_down t best
    end
  end

let[@inline] push_row t ~time ~seq ~src ~dst ~epoch payload =
  let i = t.len in
  if i = Array.length t.seqs then grow t;
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.srcs i src;
  Array.unsafe_set t.dsts i dst;
  Array.unsafe_set t.epochs i epoch;
  Array.unsafe_set t.data i payload;
  t.len <- i + 1;
  sift_up t i

let[@inline] push_deliver t ~time ~seq ~src ~dst ~epoch payload =
  push_row t ~time ~seq ~src ~dst ~epoch (Obj.repr payload)

(* The time crosses the module boundary inside a float array instead of
   as a float argument: dune's dev profile compiles with [-opaque], so
   cross-module calls are never inlined and a float argument would be
   boxed at every send. The engine passes its FIFO-stamp column and the
   slot it just stored the arrival into. *)
let push_deliver_from t ~times ~at ~seq ~src ~dst ~epoch payload =
  push_row t ~time:times.(at) ~seq ~src ~dst ~epoch (Obj.repr payload)

let[@inline never] grow_locals t =
  let cap = Array.length t.locals in
  let cap' = max 16 (2 * cap) in
  let locals = Array.make cap' no_local in
  let free = Array.make cap' 0 in
  Array.blit t.locals 0 locals 0 t.nlocals;
  Array.blit t.free 0 free 0 t.nfree;
  t.locals <- locals;
  t.free <- free

let push_local t ~time ~seq f =
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      if t.nlocals = Array.length t.locals then grow_locals t;
      let s = t.nlocals in
      t.nlocals <- s + 1;
      s
    end
  in
  t.locals.(slot) <- f;
  push_row t ~time ~seq ~src:(-1) ~dst:slot ~epoch:0 filler

(* The raises live out of line so the readers stay small enough to
   inline — [min_time] in particular must inline into the engine loop,
   or its float return is boxed on every iteration. *)
let[@inline never] empty_min_time () : float =
  invalid_arg "Event_queue.min_time: empty"

let[@inline never] empty_min_seq () : int =
  invalid_arg "Event_queue.min_seq: empty"

let[@inline] min_time t =
  if t.len = 0 then empty_min_time () else Array.unsafe_get t.times 0

let[@inline] min_seq t =
  if t.len = 0 then empty_min_seq () else Array.unsafe_get t.seqs 0

(* Raw time column for the engine's loop: under [-opaque] a [min_time]
   call returns a boxed float per iteration, while reading the returned
   array at 0 is an unboxed load. Must be re-fetched after any push —
   growth replaces the array. *)
let times t = t.times

(* The remaining min readers are unchecked: the engine reads them only
   after [min_time] (or an emptiness test) has established len > 0. *)
let[@inline] min_is_local t = Array.unsafe_get t.srcs 0 < 0
let[@inline] min_src t = Array.unsafe_get t.srcs 0
let[@inline] min_dst t = Array.unsafe_get t.dsts 0
let[@inline] min_epoch t = Array.unsafe_get t.epochs 0
let[@inline] min_payload t = Obj.obj (Array.unsafe_get t.data 0)
let[@inline] min_local t = t.locals.(t.dsts.(0))

let drop_min t =
  if t.len = 0 then invalid_arg "Event_queue.drop_min: empty";
  (* Release the local slot (if any) back to the free stack. *)
  if Array.unsafe_get t.srcs 0 < 0 then begin
    let slot = Array.unsafe_get t.dsts 0 in
    t.locals.(slot) <- no_local;
    t.free.(t.nfree) <- slot;
    t.nfree <- t.nfree + 1
  end;
  let last = t.len - 1 in
  t.len <- last;
  t.times.(0) <- Array.unsafe_get t.times last;
  t.seqs.(0) <- Array.unsafe_get t.seqs last;
  t.srcs.(0) <- Array.unsafe_get t.srcs last;
  t.dsts.(0) <- Array.unsafe_get t.dsts last;
  t.epochs.(0) <- Array.unsafe_get t.epochs last;
  t.data.(0) <- Array.unsafe_get t.data last;
  Array.unsafe_set t.data last filler;
  if last > 0 then sift_down t 0
