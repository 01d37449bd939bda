type t = { domains : int }

let create ?domains () =
  let domains =
    match domains with
    | None -> max 1 (Domain.recommended_domain_count ())
    | Some d ->
      if d < 1 then invalid_arg "Csap_pool.create: domains < 1";
      d
  in
  { domains }

let domains t = t.domains

let default_pool = ref None
let default_lock = Mutex.create ()

let default () =
  Mutex.lock default_lock;
  let t =
    match !default_pool with
    | Some t -> t
    | None ->
      let t = create () in
      default_pool := Some t;
      t
  in
  Mutex.unlock default_lock;
  t

(* A classic bounded monitor queue over a ring buffer. Two conditions:
   [not_full] wakes blocked producers, [not_empty] wakes parked workers.
   [close] broadcasts both so every blocked party re-examines the
   state. *)
module Bqueue = struct
  type 'a t = {
    lock : Mutex.t;
    not_full : Condition.t;
    not_empty : Condition.t;
    buf : 'a option array;  (* ring; [None] marks a vacated slot *)
    mutable head : int;  (* next pop *)
    mutable len : int;
    mutable closed : bool;
  }

  let create ~capacity () =
    if capacity < 1 then invalid_arg "Bqueue.create: capacity < 1";
    {
      lock = Mutex.create ();
      not_full = Condition.create ();
      not_empty = Condition.create ();
      buf = Array.make capacity None;
      head = 0;
      len = 0;
      closed = false;
    }

  let capacity t = Array.length t.buf

  let length t =
    Mutex.lock t.lock;
    let n = t.len in
    Mutex.unlock t.lock;
    n

  let[@inline] unlocked_push t x =
    t.buf.((t.head + t.len) mod Array.length t.buf) <- Some x;
    t.len <- t.len + 1;
    Condition.signal t.not_empty

  let try_push t x =
    Mutex.lock t.lock;
    let ok = (not t.closed) && t.len < Array.length t.buf in
    if ok then unlocked_push t x;
    Mutex.unlock t.lock;
    ok

  let push t x =
    Mutex.lock t.lock;
    while (not t.closed) && t.len = Array.length t.buf do
      Condition.wait t.not_full t.lock
    done;
    if t.closed then begin
      Mutex.unlock t.lock;
      invalid_arg "Bqueue.push: closed"
    end;
    unlocked_push t x;
    Mutex.unlock t.lock

  let pop t =
    Mutex.lock t.lock;
    while t.len = 0 && not t.closed do
      Condition.wait t.not_empty t.lock
    done;
    let r =
      if t.len = 0 then None (* closed and drained *)
      else begin
        let x = t.buf.(t.head) in
        (* Null the vacated slot so a parked queue retains nothing. *)
        t.buf.(t.head) <- None;
        t.head <- (t.head + 1) mod Array.length t.buf;
        t.len <- t.len - 1;
        Condition.signal t.not_full;
        x
      end
    in
    Mutex.unlock t.lock;
    r

  let close t =
    Mutex.lock t.lock;
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    Mutex.unlock t.lock

  let is_closed t =
    Mutex.lock t.lock;
    let c = t.closed in
    Mutex.unlock t.lock;
    c
end

let run t ~tasks f =
  if tasks < 0 then invalid_arg "Csap_pool.run: negative tasks";
  if tasks > 0 then begin
    let next = Atomic.make 0 in
    let failed : exn option Atomic.t = Atomic.make None in
    (* Each worker claims task indices from [next] until exhaustion. The
       first exception (by worker claim order) is stashed and re-raised
       after every worker has joined, keeping the "all tasks attempted or
       abandoned, no domain leaked" invariant. *)
    let rec worker w =
      if Atomic.get failed = None then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < tasks then begin
          (try f ~worker:w i
           with e -> ignore (Atomic.compare_and_set failed None (Some e)));
          worker w
        end
      end
    in
    let spawned =
      if t.domains <= 1 || tasks <= 1 || not (Domain.is_main_domain ()) then 0
      else min (t.domains - 1) (tasks - 1)
    in
    if spawned = 0 then worker 0
    else begin
      let doms = Array.init spawned (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
      worker 0;
      Array.iter Domain.join doms
    end;
    match Atomic.get failed with
    | Some e -> raise e
    | None -> ()
  end
