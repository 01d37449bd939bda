(* The reusable domain pool: every task index runs exactly once, worker
   indices stay in range, exceptions surface after the join, busy
   counters accumulate, and a [run] from inside a worker domain degrades
   to an inline loop instead of nest-spawning. *)

module Pool = Csap_pool

let test_each_task_once () =
  let pool = Pool.create ~domains:4 () in
  let tasks = 100 in
  let hits = Array.init tasks (fun _ -> Atomic.make 0) in
  Pool.run pool ~tasks (fun ~worker:_ i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "task %d" i) 1 (Atomic.get c))
    hits

let test_worker_indices_valid () =
  let pool = Pool.create ~domains:3 () in
  let tasks = 64 in
  let workers = Array.make tasks (-1) in
  Pool.run pool ~tasks (fun ~worker i -> workers.(i) <- worker);
  Array.iter
    (fun w ->
      Alcotest.(check bool)
        "0 <= worker < domains" true
        (w >= 0 && w < Pool.domains pool))
    workers

let test_exception_propagates () =
  let pool = Pool.create ~domains:2 () in
  Alcotest.check_raises "re-raised after join" (Failure "boom") (fun () ->
      Pool.run pool ~tasks:8 (fun ~worker:_ i ->
          if i = 3 then failwith "boom"))

let test_inline_from_worker_domain () =
  (* Inside a spawned domain the pool must not spawn again: the run
     degrades to an inline loop on the calling domain (worker 0). *)
  let d =
    Domain.spawn (fun () ->
        let pool = Pool.create ~domains:4 () in
        let hits = Array.make 32 0 in
        let on_zero = ref true in
        Pool.run pool ~tasks:32 (fun ~worker i ->
            if worker <> 0 then on_zero := false;
            hits.(i) <- hits.(i) + 1);
        !on_zero && Array.for_all (fun c -> c = 1) hits)
  in
  Alcotest.(check bool) "inline fallback ran every task on worker 0" true
    (Domain.join d)

let test_validation_and_edge_cases () =
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Csap_pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0 ()));
  let pool = Pool.create ~domains:2 () in
  Alcotest.check_raises "negative tasks"
    (Invalid_argument "Csap_pool.run: negative tasks") (fun () ->
      Pool.run pool ~tasks:(-1) (fun ~worker:_ _ -> ()));
  (* Zero tasks: a no-op that must not call f. *)
  Pool.run pool ~tasks:0 (fun ~worker:_ _ -> Alcotest.fail "called on 0 tasks");
  Alcotest.(check int) "domains accessor" 2 (Pool.domains pool);
  Alcotest.(check bool) "default pool is shared" true
    (Pool.default () == Pool.default ())

(* ------------------------------------------------------------------ *)
(* Bqueue: the bounded blocking queue under the farm's worker domains. *)

let test_bqueue_fifo_and_bounds () =
  let q = Pool.Bqueue.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (Pool.Bqueue.capacity q);
  Alcotest.(check bool) "push 1" true (Pool.Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Pool.Bqueue.try_push q 2);
  Alcotest.(check bool) "push 3" true (Pool.Bqueue.try_push q 3);
  (* Full: the backpressure signal. *)
  Alcotest.(check bool) "push on full rejected" false
    (Pool.Bqueue.try_push q 4);
  Alcotest.(check int) "length" 3 (Pool.Bqueue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Pool.Bqueue.pop q);
  Alcotest.(check bool) "room again" true (Pool.Bqueue.try_push q 4);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Pool.Bqueue.pop q);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Pool.Bqueue.pop q);
  Alcotest.(check (option int)) "fifo 4" (Some 4) (Pool.Bqueue.pop q)

let test_bqueue_close_drains () =
  let q = Pool.Bqueue.create ~capacity:4 () in
  Pool.Bqueue.push q 1;
  Pool.Bqueue.push q 2;
  Pool.Bqueue.close q;
  Pool.Bqueue.close q;  (* idempotent *)
  Alcotest.(check bool) "closed" true (Pool.Bqueue.is_closed q);
  Alcotest.(check bool) "no pushes after close" false
    (Pool.Bqueue.try_push q 3);
  Alcotest.check_raises "blocking push after close raises"
    (Invalid_argument "Bqueue.push: closed") (fun () ->
      Pool.Bqueue.push q 3);
  (* Queued elements still drain; then pops signal shutdown. *)
  Alcotest.(check (option int)) "drain 1" (Some 1) (Pool.Bqueue.pop q);
  Alcotest.(check (option int)) "drain 2" (Some 2) (Pool.Bqueue.pop q);
  Alcotest.(check (option int)) "drained" None (Pool.Bqueue.pop q);
  Alcotest.(check (option int)) "still drained" None (Pool.Bqueue.pop q)

let test_bqueue_cross_domain () =
  (* One producer pushing a tight stream through a tiny queue into two
     consumer domains: every element arrives exactly once, and the
     bound forces the producer to block (backpressure) rather than
     grow a backlog. *)
  let total = 200 in
  let q = Pool.Bqueue.create ~capacity:2 () in
  let seen = Array.make total (Atomic.make 0) in
  Array.iteri (fun i _ -> seen.(i) <- Atomic.make 0) seen;
  let consumer () =
    let rec loop () =
      match Pool.Bqueue.pop q with
      | None -> ()
      | Some i ->
        Atomic.incr seen.(i);
        loop ()
    in
    loop ()
  in
  let d1 = Domain.spawn consumer and d2 = Domain.spawn consumer in
  for i = 0 to total - 1 do
    Pool.Bqueue.push q i
  done;
  Pool.Bqueue.close q;
  Domain.join d1;
  Domain.join d2;
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "element %d delivered once" i)
        1 (Atomic.get c))
    seen;
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Bqueue.create: capacity < 1") (fun () ->
      ignore (Pool.Bqueue.create ~capacity:0 ()))

let suite =
  [
    Alcotest.test_case "every task runs exactly once" `Quick
      test_each_task_once;
    Alcotest.test_case "worker indices in range" `Quick
      test_worker_indices_valid;
    Alcotest.test_case "task exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "inline fallback off the main domain" `Quick
      test_inline_from_worker_domain;
    Alcotest.test_case "validation and edge cases" `Quick
      test_validation_and_edge_cases;
    Alcotest.test_case "bqueue FIFO, bounds and backpressure signal" `Quick
      test_bqueue_fifo_and_bounds;
    Alcotest.test_case "bqueue close drains then signals shutdown" `Quick
      test_bqueue_close_drains;
    Alcotest.test_case "bqueue delivers once across domains" `Quick
      test_bqueue_cross_domain;
  ]
