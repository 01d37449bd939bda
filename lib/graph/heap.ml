(* Elements are stored in an [Obj.t] array behind an immediate filler
   (the same trick as the simulator's SOA event queue): the backing
   array is created from the filler, so it is never float-tagged and
   generic reads/writes round-trip any ['a] — including boxed floats —
   unchanged.

   The filler matters for retention, not speed: the engine's boxed
   event queue parks [Local] closures and message payloads in here, and
   a popped slot that keeps its old pointer would hold those closures
   (and everything they capture) live until the slot happens to be
   overwritten. Every vacated slot — on [pop_min] and on
   [to_sorted_list]'s drain — is therefore nulled back to the
   filler. *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : Obj.t array;
  mutable len : int;
}

let filler = Obj.repr 0

let create ~cmp = { cmp; data = [||]; len = 0 }

let size t = t.len

let is_empty t = t.len = 0

let[@inline] get t i : 'a = Obj.obj (Array.unsafe_get t.data i)

let grow t =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let new_cap = max 8 (2 * cap) in
    (* Fresh capacity is filler, never a live element: [Array.make cap x]
       would pin [x] in every unused slot. *)
    let data = Array.make new_cap filler in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp (get t i) (get t parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.cmp (get t l) (get t !smallest) < 0 then smallest := l;
  if r < t.len && t.cmp (get t r) (get t !smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let add t x =
  grow t;
  t.data.(t.len) <- Obj.repr x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek_min t = if t.len = 0 then None else Some (get t 0)

let pop_min t =
  if t.len = 0 then None
  else begin
    let min : 'a = get t 0 in
    t.len <- t.len - 1;
    if t.len > 0 then t.data.(0) <- t.data.(t.len);
    (* Null the vacated slot: the popped element (or the moved tail's
       stale duplicate) must not stay reachable through the heap. *)
    t.data.(t.len) <- filler;
    if t.len > 0 then sift_down t 0;
    Some min
  end

let of_list ~cmp xs =
  match xs with
  | [] -> create ~cmp
  | _ ->
    let n = List.length xs in
    let data = Array.make n filler in
    List.iteri (fun i x -> data.(i) <- Obj.repr x) xs;
    let t = { cmp; data; len = n } in
    for i = (t.len / 2) - 1 downto 0 do
      sift_down t i
    done;
    t

let to_sorted_list t =
  let rec drain acc =
    match pop_min t with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  drain []
