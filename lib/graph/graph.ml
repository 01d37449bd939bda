type edge = { u : int; v : int; w : int }

(* Adjacency is compressed-sparse-row: vertex [v]'s incident edges live in
   slots [off.(v) .. off.(v+1) - 1] of the flat parallel arrays [nbr]
   (other endpoint), [wt] (weight) and [eid] (edge id), in per-vertex
   edge-id order — the same order the historical boxed
   [(nbr, w, eid) array array] used, so every traversal that migrated to
   the flat rows visits neighbours in the identical sequence. Plain int
   arrays: neighbour loops touch three cache-friendly flat arrays instead
   of pointer-chasing boxed tuples, allocate nothing, and the whole
   structure can be shared freely across domains (immutable after
   [create]). *)
type t = {
  n : int;
  id : int;
  edges : edge array;
  off : int array;  (* length n + 1; off.(n) = 2m *)
  nbr : int array;
  wt : int array;
  eid : int array;
  (* Hot-path edge index: per-vertex neighbour ids sorted ascending (flat,
     sharing [off]), with the incident edge id and the position of the
     neighbour within the vertex's CSR row kept aligned, so membership
     queries binary-search instead of scanning the whole row. *)
  sorted_nbr : int array;
  sorted_eid : int array;
  sorted_pos : int array;
}

let next_id =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1

let normalise_edge n (u, v, w) =
  if u = v then invalid_arg "Graph.create: self-loop";
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Graph.create: endpoint out of range";
  if w < 1 then invalid_arg "Graph.create: weight must be >= 1";
  if u < v then { u; v; w } else { u = v; v = u; w }

(* Sorted-adjacency index over finished CSR rows: sort each row's
   (neighbour, edge id, position) triples by neighbour id. *)
let build_sorted_index ~n ~off ~nbr ~eid =
  let two_m = Array.length nbr in
  let sorted_nbr = Array.make two_m 0
  and sorted_eid = Array.make two_m 0
  and sorted_pos = Array.make two_m 0 in
  let max_deg = ref 0 in
  for v = 0 to n - 1 do
    max_deg := max !max_deg (off.(v + 1) - off.(v))
  done;
  let triples = Array.make !max_deg (0, 0, 0) in
  for v = 0 to n - 1 do
    let lo = off.(v) in
    let d = off.(v + 1) - lo in
    for i = 0 to d - 1 do
      triples.(i) <- (nbr.(lo + i), eid.(lo + i), i)
    done;
    let slice = Array.sub triples 0 d in
    Array.sort compare slice;
    Array.iteri
      (fun i (u, id, pos) ->
        sorted_nbr.(lo + i) <- u;
        sorted_eid.(lo + i) <- id;
        sorted_pos.(lo + i) <- pos)
      slice
  done;
  (sorted_nbr, sorted_eid, sorted_pos)

(* Shared CSR finisher over a validated, normalised edge array. *)
let of_edge_array ~n edges =
  let m = Array.length edges in
  let off = Array.make (n + 1) 0 in
  Array.iter
    (fun e ->
      off.(e.u) <- off.(e.u) + 1;
      off.(e.v) <- off.(e.v) + 1)
    edges;
  (* Prefix-sum the degrees into row offsets. *)
  let total = ref 0 in
  for v = 0 to n do
    let d = off.(v) in
    off.(v) <- !total;
    if v < n then total := !total + d
  done;
  let nbr = Array.make (2 * m) 0
  and wt = Array.make (2 * m) 0
  and eid = Array.make (2 * m) 0 in
  let fill = Array.make n 0 in
  Array.iteri
    (fun id e ->
      let slot v x =
        let i = off.(v) + fill.(v) in
        fill.(v) <- fill.(v) + 1;
        nbr.(i) <- x;
        wt.(i) <- e.w;
        eid.(i) <- id
      in
      slot e.u e.v;
      slot e.v e.u)
    edges;
  let sorted_nbr, sorted_eid, sorted_pos =
    build_sorted_index ~n ~off ~nbr ~eid
  in
  {
    n;
    id = next_id ();
    edges;
    off;
    nbr;
    wt;
    eid;
    sorted_nbr;
    sorted_eid;
    sorted_pos;
  }

let create ~n edge_list =
  if n < 0 then invalid_arg "Graph.create: negative n";
  let edges = Array.of_list (List.map (normalise_edge n) edge_list) in
  let m = Array.length edges in
  let seen = Hashtbl.create m in
  Array.iter
    (fun e ->
      if Hashtbl.mem seen (e.u, e.v) then
        invalid_arg "Graph.create: duplicate edge";
      Hashtbl.add seen (e.u, e.v) ())
    edges;
  of_edge_array ~n edges

let of_stream ~n iter =
  if n < 0 then invalid_arg "Graph.of_stream: negative n";
  (* Count pass: degrees and edge count only — no tuple list, no
     per-edge allocation. Endpoint/weight validation happens here so the
     fill pass can trust the stream. Duplicate detection is skipped: it
     needs O(m) auxiliary hash state, which is exactly what this path
     exists to avoid; generators feeding it must emit each edge once. *)
  let off = Array.make (n + 1) 0 in
  let m = ref 0 in
  iter (fun u v w ->
      if u = v then invalid_arg "Graph.of_stream: self-loop";
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_stream: endpoint out of range";
      if w < 1 then invalid_arg "Graph.of_stream: weight must be >= 1";
      off.(u) <- off.(u) + 1;
      off.(v) <- off.(v) + 1;
      incr m);
  let m = !m in
  let total = ref 0 in
  for v = 0 to n do
    let d = off.(v) in
    off.(v) <- !total;
    if v < n then total := !total + d
  done;
  (* Fill pass: the generator replays the identical stream; edge ids are
     assigned in stream order, matching what [create] would produce on
     the same sequence. *)
  let edges = Array.make m { u = 0; v = 0; w = 0 } in
  let nbr = Array.make (2 * m) 0
  and wt = Array.make (2 * m) 0
  and eid = Array.make (2 * m) 0 in
  let fill = Array.make n 0 in
  let id = ref 0 in
  iter (fun u v w ->
      if !id >= m then
        invalid_arg "Graph.of_stream: stream grew between passes";
      let u, v = if u < v then (u, v) else (v, u) in
      edges.(!id) <- { u; v; w };
      let slot x other =
        let i = off.(x) + fill.(x) in
        fill.(x) <- fill.(x) + 1;
        nbr.(i) <- other;
        wt.(i) <- w;
        eid.(i) <- !id
      in
      slot u v;
      slot v u;
      incr id);
  if !id <> m then invalid_arg "Graph.of_stream: stream shrank between passes";
  let sorted_nbr, sorted_eid, sorted_pos =
    build_sorted_index ~n ~off ~nbr ~eid
  in
  {
    n;
    id = next_id ();
    edges;
    off;
    nbr;
    wt;
    eid;
    sorted_nbr;
    sorted_eid;
    sorted_pos;
  }

let n t = t.n
let m t = Array.length t.edges

let check_root fn t r =
  if r < 0 || r >= t.n then
    invalid_arg (Printf.sprintf "%s: root %d out of range [0, %d)" fn r t.n)
let id t = t.id
let edges t = t.edges
let edge t id = t.edges.(id)
let degree t v = t.off.(v + 1) - t.off.(v)

let csr_offsets t = t.off
let csr_neighbors t = t.nbr
let csr_weights t = t.wt
let csr_edge_ids t = t.eid

(* The row bounds come from [off], which the shape invariant keeps within
   [0 .. 2m], so the unchecked reads below stay in range. *)
let[@inline] iter_neighbors t v f =
  let hi = Array.unsafe_get t.off (v + 1) in
  for i = Array.unsafe_get t.off v to hi - 1 do
    f
      (Array.unsafe_get t.nbr i)
      (Array.unsafe_get t.wt i)
      (Array.unsafe_get t.eid i)
  done

let[@inline] fold_neighbors t v f init =
  let acc = ref init in
  let hi = Array.unsafe_get t.off (v + 1) in
  for i = Array.unsafe_get t.off v to hi - 1 do
    acc :=
      f !acc
        (Array.unsafe_get t.nbr i)
        (Array.unsafe_get t.wt i)
        (Array.unsafe_get t.eid i)
  done;
  !acc

(* Below this degree a linear scan over the (cache-resident) CSR row beats
   the binary search's branching. *)
let small_degree = 8

(* Top-level so the scan needs no closure: this sits on [Engine.send]'s
   allocation-free hot path (and classic-mode ocamlopt allocates local
   recursive closures per call). *)
let rec scan_row t v i hi =
  if i >= hi then -1
  else if t.nbr.(i) = v then t.eid.(i)
  else scan_row t v (i + 1) hi

let edge_id_between_scan t u v = scan_row t v t.off.(u) t.off.(u + 1)

(* Binary search for [v] in [u]'s sorted neighbour row; returns the slot
   in the sorted arrays, or -1. *)
let sorted_slot t u v =
  let base = t.off.(u) in
  let lo = ref base and hi = ref t.off.(u + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.sorted_nbr.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < t.off.(u + 1) && t.sorted_nbr.(!lo) = v then !lo else -1

let edge_id_between t u v =
  (* Query from the endpoint with the smaller degree. Branchy swap, not
     a tuple: [let u, v = if .. then (u, v) else (v, u)] allocates the
     pair on every send. *)
  let swap = degree t u > degree t v in
  let a = if swap then v else u in
  let b = if swap then u else v in
  if degree t a <= small_degree then edge_id_between_scan t a b
  else
    let s = sorted_slot t a b in
    if s < 0 then -1 else t.sorted_eid.(s)

let edge_between t u v =
  let id = edge_id_between t u v in
  if id < 0 then None else Some (t.edges.(id).w, id)

let neighbor_index t u v =
  if degree t u <= small_degree then begin
    let lo = t.off.(u) in
    let hi = t.off.(u + 1) in
    let rec scan i =
      if i >= hi then -1 else if t.nbr.(i) = v then i - lo else scan (i + 1)
    in
    scan lo
  end
  else
    let s = sorted_slot t u v in
    if s < 0 then -1 else t.sorted_pos.(s)

let other_endpoint e x =
  if e.u = x then e.v
  else begin
    assert (e.v = x);
    e.u
  end

let total_weight t = Array.fold_left (fun acc e -> acc + e.w) 0 t.edges

let max_weight t = Array.fold_left (fun acc e -> max acc e.w) 0 t.edges

let heaviest_edge t =
  let best = ref 0 in
  Array.iteri (fun id e -> if e.w > t.edges.(!best).w then best := id) t.edges;
  !best

let is_connected t =
  if t.n <= 1 then true
  else begin
    let visited = Array.make t.n false in
    let stack = ref [ 0 ] in
    visited.(0) <- true;
    let count = ref 1 in
    let rec loop () =
      match !stack with
      | [] -> ()
      | v :: rest ->
        stack := rest;
        iter_neighbors t v (fun u _ _ ->
            if not visited.(u) then begin
              visited.(u) <- true;
              incr count;
              stack := u :: !stack
            end);
        loop ()
    in
    loop ();
    !count = t.n
  end

let map_weights t f =
  create ~n:t.n
    (Array.to_list (Array.map (fun e -> (e.u, e.v, f e)) t.edges))

let subgraph t ~keep_edge =
  create ~n:t.n
    (Array.to_list t.edges
    |> List.filter keep_edge
    |> List.map (fun e -> (e.u, e.v, e.w)))

let compare_edges a b =
  let c = compare a.w b.w in
  if c <> 0 then c
  else
    let c = compare a.u b.u in
    if c <> 0 then c else compare a.v b.v

let pp_edge ppf e = Format.fprintf ppf "{%d,%d}:%d" e.u e.v e.w

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>graph n=%d m=%d@ %a@]" t.n (m t)
    (Format.pp_print_array ~pp_sep:Format.pp_print_space pp_edge)
    t.edges
