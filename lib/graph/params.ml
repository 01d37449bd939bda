type t = {
  n : int;
  m : int;
  script_e : int;
  script_v : int;
  script_d : int;
  d : int;
  w_max : int;
}

(* Computing the parameters costs an MST plus [Paths.extrema]'s
   eccentricity-bound sweep — a handful of Dijkstras on most families,
   but up to n when every eccentricity is equal (cycles, complete
   graphs); the benchmark harness asks for them once per table row on
   the same instance. Memoize per graph identity ({!Graph.id}), behind a
   mutex so the parallel bench harness's domains can share the cache.
   The compute itself runs outside the lock: two domains racing on the
   same graph both compute the same pure value, and one insert wins.

   The cache is bounded: graph ids never repeat, so long bench runs over
   thousands of generated graphs would otherwise grow it without limit.
   Eviction is insertion-order (FIFO) — [order] queues keys as they are
   first stored, and once over capacity the oldest entries are dropped.
   Recency is irrelevant here: the harness computes each instance's
   parameters in a burst of nearby table rows and never returns to it. *)
let default_cache_capacity = 4096

let cache : (int, t) Hashtbl.t = Hashtbl.create 64
let order : int Queue.t = Queue.create ()
let capacity = ref default_cache_capacity
let cache_lock = Mutex.create ()

(* Call with [cache_lock] held. *)
let evict_over_capacity () =
  while Hashtbl.length cache > !capacity do
    Hashtbl.remove cache (Queue.pop order)
  done

let cache_find key =
  Mutex.lock cache_lock;
  let r = Hashtbl.find_opt cache key in
  Mutex.unlock cache_lock;
  r

let cache_store key p =
  Mutex.lock cache_lock;
  if not (Hashtbl.mem cache key) then begin
    Hashtbl.add cache key p;
    Queue.push key order;
    evict_over_capacity ()
  end;
  Mutex.unlock cache_lock

let cache_capacity () = !capacity

let set_cache_capacity c =
  if c < 1 then invalid_arg "Params.set_cache_capacity: capacity < 1";
  Mutex.lock cache_lock;
  capacity := c;
  evict_over_capacity ();
  Mutex.unlock cache_lock

let cache_size () =
  Mutex.lock cache_lock;
  let s = Hashtbl.length cache in
  Mutex.unlock cache_lock;
  s

let cached g = cache_find (Graph.id g) <> None

let cache_clear () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  Queue.clear order;
  Mutex.unlock cache_lock

let compute g =
  let key = Graph.id g in
  match cache_find key with
  | Some p -> p
  | None ->
    let e = Paths.extrema g in
    let p =
      {
        n = Graph.n g;
        m = Graph.m g;
        script_e = Graph.total_weight g;
        script_v = Mst.weight g;
        script_d = e.Paths.diameter;
        d = e.Paths.max_neighbor;
        w_max = Graph.max_weight g;
      }
    in
    cache_store key p;
    p

let pp ppf t =
  Format.fprintf ppf
    "n=%d m=%d E=%d V=%d D=%d d=%d W=%d" t.n t.m t.script_e t.script_v
    t.script_d t.d t.w_max

let invariants_hold t =
  t.script_v <= t.script_e
  && t.script_d <= t.script_e
  && t.d <= t.w_max
  && (t.n <= 1 || t.script_v <= (t.n - 1) * t.script_d)
  && t.script_d <= max 1 t.script_v (* every distance <= some MST path *)
