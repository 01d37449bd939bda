type sssp = {
  src : int;
  dist : int array;
  parent : int array;
}

(* The hot-path Dijkstra: indexed heap with decrease_key, so each vertex
   occupies at most one heap slot, relaxations allocate nothing, and the
   pop order matches the historical (dist, vertex) tuple order (the heap
   breaks priority ties by key). The relaxation scan reads the graph's
   raw CSR rows — three flat int arrays — instead of walking boxed
   adjacency tuples.

   A vertex popped from the heap is settled: every later relaxation
   reaching it offers dv = du + w > du >= dist(v) (weights are >= 1), so
   neither the improvement branch nor the equal-distance parent tie-break
   can fire for it — no explicit [settled] array is needed. *)
let dijkstra_into g ~src ~dist ~parent heap =
  let n = Graph.n g in
  Array.fill dist 0 n max_int;
  Array.fill parent 0 n (-1);
  Indexed_heap.clear heap;
  dist.(src) <- 0;
  Indexed_heap.insert heap src 0;
  let off = Graph.csr_offsets g in
  let nbr = Graph.csr_neighbors g in
  let wt = Graph.csr_weights g in
  let rec loop () =
    let u = Indexed_heap.pop_min heap in
    if u >= 0 then begin
      let du = dist.(u) in
      (* Row bounds come from [off] and neighbor ids are < n by the CSR
         shape invariant, so the unchecked reads stay in range. *)
      let hi = Array.unsafe_get off (u + 1) in
      for i = Array.unsafe_get off u to hi - 1 do
        let v = Array.unsafe_get nbr i in
        let dv = du + Array.unsafe_get wt i in
        let dcur = Array.unsafe_get dist v in
        if dv < dcur then begin
          Array.unsafe_set dist v dv;
          Array.unsafe_set parent v u;
          Indexed_heap.push heap v dv
        end
        else if dv = dcur && u < Array.unsafe_get parent v then
          Array.unsafe_set parent v u
      done;
      loop ()
    end
  in
  loop ()

let dijkstra g ~src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  dijkstra_into g ~src ~dist ~parent (Indexed_heap.create n);
  { src; dist; parent }

(* The pre-CSR formulation of [dijkstra_into]: same indexed heap, but the
   relaxation scan walks boxed [(u, w, edge_id)] tuple rows, materialised
   afresh on each visit — the O(degree) allocation the CSR microbenchmark
   pair measures. Kept as the before side of that pair and as a test
   oracle for the flat-row path. *)
let dijkstra_tuple g ~src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let heap = Indexed_heap.create n in
  dist.(src) <- 0;
  Indexed_heap.insert heap src 0;
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let wt = Graph.csr_weights g and eid = Graph.csr_edge_ids g in
  let neighbors u =
    let lo = off.(u) in
    Array.init
      (off.(u + 1) - lo)
      (fun i -> (nbr.(lo + i), wt.(lo + i), eid.(lo + i)))
  in
  let rec loop () =
    let u = Indexed_heap.pop_min heap in
    if u >= 0 then begin
      let du = dist.(u) in
      let nbrs = neighbors u in
      for i = 0 to Array.length nbrs - 1 do
        let v, w, _ = nbrs.(i) in
        let dv = du + w in
        if dv < dist.(v) then begin
          dist.(v) <- dv;
          parent.(v) <- u;
          Indexed_heap.push heap v dv
        end
        else if dv = dist.(v) && u < parent.(v) then parent.(v) <- u
      done;
      loop ()
    end
  in
  loop ();
  { src; dist; parent }

(* The historical lazy-deletion formulation over the generic {!Heap},
   kept as a reference: the regression tests check the indexed version
   against it edge-for-edge, and the microbenchmarks report the
   before/after speedup. *)
let dijkstra_lazy g ~src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let cmp (d1, v1) (d2, v2) =
    let c = compare d1 d2 in
    if c <> 0 then c else compare v1 v2
  in
  let heap = Heap.create ~cmp in
  dist.(src) <- 0;
  Heap.add heap (0, src);
  let relax u du v w =
    let dv = du + w in
    if
      (not settled.(v))
      && (dv < dist.(v) || (dv = dist.(v) && u < parent.(v)))
    then begin
      dist.(v) <- dv;
      parent.(v) <- u;
      Heap.add heap (dv, v)
    end
  in
  let rec loop () =
    match Heap.pop_min heap with
    | None -> ()
    | Some (du, u) ->
      if not settled.(u) then begin
        settled.(u) <- true;
        assert (du = dist.(u));
        Graph.iter_neighbors g u (fun v w _ -> relax u du v w);
        loop ()
      end
      else loop ()
  in
  loop ();
  { src; dist; parent }

let bellman_ford g ~src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  dist.(src) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (e : Graph.edge) ->
        let relax a b =
          if dist.(a) < max_int then begin
            let d = dist.(a) + e.w in
            if d < dist.(b) || (d = dist.(b) && a < parent.(b)) then begin
              dist.(b) <- d;
              parent.(b) <- a;
              changed := true
            end
          end
        in
        relax e.u e.v;
        relax e.v e.u)
      (Graph.edges g)
  done;
  { src; dist; parent }

let spt g ~src =
  let { dist; parent; _ } = dijkstra g ~src in
  Array.iter
    (fun d ->
      if d = max_int then invalid_arg "Paths.spt: graph is disconnected")
    dist;
  let n = Graph.n g in
  let weights =
    Array.init n (fun v -> if v = src then 0 else dist.(v) - dist.(parent.(v)))
  in
  Tree.of_parents ~root:src ~parents:parent ~weights

let dist g u v = (dijkstra g ~src:u).dist.(v)

let eccentricity g v =
  Array.fold_left max 0 (dijkstra g ~src:v).dist

type extrema = {
  diameter : int;
  radius : int;
  center : int;
  max_neighbor : int;
}

(* The summaries of one full Dijkstra from [src]: its eccentricity and
   its largest distance to a neighbour. *)
let source_summaries g ~src ~dist =
  let ecc = Array.fold_left max 0 dist in
  let local_max = ref 0 in
  Graph.iter_neighbors g src (fun u _ _ ->
      if dist.(u) > !local_max then local_max := dist.(u));
  (ecc, !local_max)

(* One sweep of n Dijkstras, reusing the distance/parent buffers and the
   heap, yields every all-sources distance parameter at once. Kept as
   the oracle the bound sweep [extrema] is tested against: the centre is
   the smallest vertex attaining the radius. *)
let extrema_seq g =
  if not (Graph.is_connected g) then
    invalid_arg "Paths.extrema: graph is disconnected";
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let heap = Indexed_heap.create n in
  let diameter = ref 0 in
  let radius = ref max_int and center = ref 0 in
  let max_neighbor = ref 0 in
  for v = 0 to n - 1 do
    dijkstra_into g ~src:v ~dist ~parent heap;
    let e, lm = source_summaries g ~src:v ~dist in
    if e > !diameter then diameter := e;
    if e < !radius then begin
      radius := e;
      center := v
    end;
    if lm > !max_neighbor then max_neighbor := lm
  done;
  {
    diameter = !diameter;
    radius = !radius;
    center = !center;
    max_neighbor = !max_neighbor;
  }

(* Whether edge (src, u) of weight w can still raise d above [best]:
   dist(src, u) <= w, so it must be heavier than [best]; its smaller
   endpoint covers it; and a [swept] endpoint's full Dijkstra already
   counted it. *)
let[@inline] open_edge ~swept ~best ~src u w =
  w > best && u > src && not (Array.unsafe_get swept u)

(* The largest dist(src, u) over [src]'s open edges (0 if it has none),
   from a Dijkstra cut off at the heaviest of them, r: each such u is
   within r, and every vertex within r of [src] gets its exact distance,
   since each prefix of its shortest path is within r too. [dist] holds
   max_int everywhere on entry and again on return: the run records the
   vertices it reaches in [touched] and resets only those, so it costs
   the size of the ball, not n. *)
let local_max_within g ~swept ~best ~src ~dist ~touched heap =
  let off = Graph.csr_offsets g in
  let nbr = Graph.csr_neighbors g in
  let wt = Graph.csr_weights g in
  let r = ref 0 in
  for i = off.(src) to off.(src + 1) - 1 do
    if open_edge ~swept ~best ~src nbr.(i) wt.(i) && wt.(i) > !r then
      r := wt.(i)
  done;
  let r = !r in
  if r = 0 then 0
  else begin
    dist.(src) <- 0;
    touched.(0) <- src;
    let reached = ref 1 in
    Indexed_heap.insert heap src 0;
    let rec loop () =
      let u = Indexed_heap.pop_min heap in
      if u >= 0 then begin
        let du = dist.(u) in
        (* Same CSR shape invariant as [dijkstra_into]. *)
        for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
          let dv = du + Array.unsafe_get wt i in
          if dv <= r then begin
            let v = Array.unsafe_get nbr i in
            let dcur = Array.unsafe_get dist v in
            if dv < dcur then begin
              if dcur = max_int then begin
                touched.(!reached) <- v;
                incr reached
              end;
              Array.unsafe_set dist v dv;
              Indexed_heap.push heap v dv
            end
          end
        done;
        loop ()
      end
    in
    loop ();
    let local_max = ref 0 in
    for i = off.(src) to off.(src + 1) - 1 do
      let u = nbr.(i) in
      if open_edge ~swept ~best ~src u wt.(i) && dist.(u) > !local_max then
        local_max := dist.(u)
    done;
    for i = 0 to !reached - 1 do
      dist.(touched.(i)) <- max_int
    done;
    !local_max
  end

(* The paper's d, given [best]: the largest local maximum over the
   [swept] vertices, read off the full Dijkstras already run from them.
   Every other vertex runs a truncated Dijkstra over its open edges.
   [dist] holds max_int everywhere. *)
let max_local_within g ~swept ~best ~dist heap =
  let touched = Array.make (Graph.n g) 0 in
  let best = ref best in
  for v = 0 to Graph.n g - 1 do
    if not swept.(v) then begin
      let lm =
        local_max_within g ~swept ~best:!best ~src:v ~dist ~touched heap
      in
      if lm > !best then best := lm
    end
  done;
  !best

(* The exact eccentricity-bound sweep (Takes & Kosters, CIKM 2011, with
   the radius alongside the diameter). A full Dijkstra from v bounds
   every w by max(ecc(v) - d(v,w), d(v,w)) <= ecc(w) <= ecc(v) + d(v,w);
   a vertex whose bounds meet has a known eccentricity without a
   Dijkstra of its own. [live] holds, in increasing index order, the
   unresolved vertices that could still raise the diameter (hi >
   diameter) or attain the radius (lo < radius, or lo = radius below the
   current centre, which keeps the smallest-index tie-break of
   [extrema_seq]). Neither condition can become true again once false —
   diameter only grows, radius only shrinks, lo/hi only tighten — so
   [live] only shrinks, and the sweep ends when it is empty.

   One pass over [live] per source tightens the bounds, settles the
   vertices whose bounds meet, drops the non-candidates and picks the
   next source: alternately the largest hi among diameter candidates
   and the smallest lo among radius candidates, the smaller index on
   ties. A vertex kept against thresholds that a later vertex of the
   same pass tightens is dropped by the next pass. *)
let extrema g =
  if not (Graph.is_connected g) then
    invalid_arg "Paths.extrema: graph is disconnected";
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let heap = Indexed_heap.create n in
  let lo = Array.make n 0 and hi = Array.make n max_int in
  let swept = Array.make n false in
  let live = Array.init n Fun.id in
  let nlive = ref n in
  let diameter = ref 0 in
  let radius = ref max_int and center = ref 0 in
  let settle w ecc =
    if ecc > !diameter then diameter := ecc;
    if ecc < !radius || (ecc = !radius && w < !center) then begin
      radius := ecc;
      center := w
    end
  in
  let max_neighbor = ref 0 in
  let src = ref 0 and by_hi = ref true in
  while !nlive > 0 do
    let v = !src in
    dijkstra_into g ~src:v ~dist ~parent heap;
    let e, lm = source_summaries g ~src:v ~dist in
    swept.(v) <- true;
    if lm > !max_neighbor then max_neighbor := lm;
    settle v e;
    let kept = ref 0 in
    let best_hi = ref (-1) and top_hi = ref min_int in
    let best_lo = ref (-1) and top_lo = ref max_int in
    (* [live] holds distinct vertices < n, so the unchecked reads and
       the compaction write (at [kept] <= i) stay in range. *)
    for i = 0 to !nlive - 1 do
      let w = Array.unsafe_get live i in
      let d = Array.unsafe_get dist w in
      let l = Array.unsafe_get lo w and h = Array.unsafe_get hi w in
      let l = if d > l then d else l in
      let l = if e - d > l then e - d else l in
      let h = if e + d < h then e + d else h in
      Array.unsafe_set lo w l;
      Array.unsafe_set hi w h;
      if l = h then settle w l
      else begin
        let for_diameter = h > !diameter in
        let for_radius = l < !radius || (l = !radius && w < !center) in
        if for_diameter || for_radius then begin
          Array.unsafe_set live !kept w;
          incr kept;
          if for_diameter && h > !top_hi then begin
            best_hi := w;
            top_hi := h
          end;
          if for_radius && l < !top_lo then begin
            best_lo := w;
            top_lo := l
          end
        end
      end
    done;
    nlive := !kept;
    by_hi := not !by_hi;
    src :=
      if (!by_hi && !best_hi >= 0) || !best_lo < 0 then !best_hi
      else !best_lo
  done;
  Array.fill dist 0 n max_int;
  {
    diameter = !diameter;
    radius = !radius;
    center = !center;
    max_neighbor = max_local_within g ~swept ~best:!max_neighbor ~dist heap;
  }

(* Below ~64 sources the Dijkstras are cheaper than spawning. *)
let parallel_cutoff = 64

let all_pairs ?pool g =
  let n = Graph.n g in
  let pool =
    match pool with Some p -> p | None -> Csap_pool.default ()
  in
  let rows = Array.make n [||] in
  if n < parallel_cutoff || Csap_pool.domains pool <= 1 then begin
    let dist = Array.make n max_int in
    let parent = Array.make n (-1) in
    let heap = Indexed_heap.create n in
    for v = 0 to n - 1 do
      dijkstra_into g ~src:v ~dist ~parent heap;
      rows.(v) <- Array.copy dist
    done
  end
  else begin
    let scratch =
      Array.init (Csap_pool.domains pool) (fun _ ->
          (Array.make n max_int, Array.make n (-1), Indexed_heap.create n))
    in
    Csap_pool.run pool ~tasks:n (fun ~worker v ->
        let dist, parent, heap = scratch.(worker) in
        dijkstra_into g ~src:v ~dist ~parent heap;
        rows.(v) <- Array.copy dist)
  end;
  rows

let diameter g = (extrema g).diameter

let radius_and_center g =
  let e = extrema g in
  (e.radius, e.center)

let max_neighbor_distance g =
  let n = Graph.n g in
  max_local_within g ~swept:(Array.make n false) ~best:0
    ~dist:(Array.make n max_int) (Indexed_heap.create n)
