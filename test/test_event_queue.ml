module Q = Csap_dsim.Event_queue

(* Reference: drain order must equal the (time, seq) lexicographic sort of
   the inserted keys. Seqs are distinct by construction (the engine's send
   counter), so the order is total. Each entry is read back field-by-field
   — the SOA queue never materialises an event value. *)
let drain q n =
  List.init n (fun _ ->
      let t = Q.min_time q and s = Q.min_seq q in
      let v = Q.min_payload q in
      Q.drop_min q;
      (t, s, v))

let sorted_oracle entries =
  List.sort
    (fun (t1, s1, _) (t2, s2, _) ->
      match compare t1 t2 with 0 -> compare s1 s2 | c -> c)
    entries

let fill q entries =
  List.iter
    (fun (t, s, v) ->
      Q.push_deliver q ~time:t ~seq:s ~src:(v * 3) ~dst:(v * 5) ~epoch:v v)
    entries

let test_empty_raises () =
  let q : int Q.t = Q.create () in
  Alcotest.check_raises "min_time" (Invalid_argument "Event_queue.min_time: empty")
    (fun () -> ignore (Q.min_time q));
  Alcotest.check_raises "min_seq" (Invalid_argument "Event_queue.min_seq: empty")
    (fun () -> ignore (Q.min_seq q));
  Alcotest.check_raises "drop_min" (Invalid_argument "Event_queue.drop_min: empty")
    (fun () -> Q.drop_min q)

let test_duplicate_times () =
  (* Equal times drain in seq (insertion) order. *)
  let q = Q.create () in
  let entries = [ (2.0, 3, 30); (1.0, 1, 10); (2.0, 2, 20); (1.0, 0, 0) ] in
  fill q entries;
  Alcotest.(check (list (triple (float 1e-9) int int)))
    "seq breaks ties" (sorted_oracle entries) (drain q 4)

let test_min_fields_track_min () =
  (* Every SOA column of the minimum moves together under pops. *)
  let q = Q.create ~capacity:1 () in
  Q.push_deliver q ~time:5.0 ~seq:0 ~src:7 ~dst:8 ~epoch:2 100;
  Q.push_deliver q ~time:1.0 ~seq:1 ~src:3 ~dst:4 ~epoch:1 101;
  Alcotest.(check int) "seq of the earliest event" 1 (Q.min_seq q);
  Alcotest.(check int) "src" 3 (Q.min_src q);
  Alcotest.(check int) "dst" 4 (Q.min_dst q);
  Alcotest.(check int) "epoch" 1 (Q.min_epoch q);
  Alcotest.(check int) "payload" 101 (Q.min_payload q);
  Alcotest.(check bool) "a delivery is not local" false (Q.min_is_local q);
  Q.drop_min q;
  Alcotest.(check int) "after pop: seq" 0 (Q.min_seq q);
  Alcotest.(check int) "after pop: src" 7 (Q.min_src q);
  Alcotest.(check int) "after pop: payload" 100 (Q.min_payload q)

let test_local_slots_recycle () =
  (* Local closures live in the side slot table; popping releases the
     slot, and interleaved deliver/local pops keep the (time, seq)
     order. *)
  let q : int Q.t = Q.create () in
  let fired = ref [] in
  let mark k () = fired := k :: !fired in
  Q.push_local q ~time:2.0 ~seq:0 (mark 0);
  Q.push_deliver q ~time:1.0 ~seq:1 ~src:0 ~dst:1 ~epoch:0 11;
  Q.push_local q ~time:1.0 ~seq:2 (mark 2);
  Alcotest.(check bool) "delivery first" false (Q.min_is_local q);
  Q.drop_min q;
  Alcotest.(check bool) "local at t=1" true (Q.min_is_local q);
  (Q.min_local q) ();
  Q.drop_min q;
  (Q.min_local q) ();
  Q.drop_min q;
  (* (1.0, seq 2) pops before (2.0, seq 0). *)
  Alcotest.(check (list int)) "closures in order" [ 2; 0 ] (List.rev !fired);
  (* Slots recycle: many push/pop rounds keep the table small and the
     closures correct. *)
  for round = 0 to 99 do
    Q.push_local q ~time:0.0 ~seq:round (mark round);
    (Q.min_local q) ();
    Q.drop_min q
  done;
  Alcotest.(check int) "all rounds fired" 102 (List.length !fired);
  Q.push_local q ~time:0.0 ~seq:0 (mark (-1));
  Q.drop_min q;
  Alcotest.(check bool) "drained" true (Q.is_empty q)

(* Random keys with possibly-duplicate times; distinct seqs. *)
let entries_arb =
  QCheck.(
    make
      ~print:(fun l ->
        String.concat ";"
          (List.map (fun (t, s, v) -> Printf.sprintf "(%g,%d,%d)" t s v) l))
      Gen.(
        map
          (fun ts -> List.mapi (fun i t -> (float_of_int t /. 4.0, i, i)) ts)
          (list_size (int_range 0 200) (int_range 0 40))))

let prop_pop_order =
  QCheck.Test.make ~count:300 ~name:"pop order = sorted (time, seq)"
    entries_arb
    (fun entries ->
      let q = Q.create () in
      fill q entries;
      drain q (List.length entries) = sorted_oracle entries)

let prop_pop_order_after_drain =
  (* A drained, reused queue behaves exactly like a fresh one. *)
  QCheck.Test.make ~count:300 ~name:"pop order after drain and reuse"
    QCheck.(pair entries_arb entries_arb)
    (fun (first, second) ->
      let q = Q.create () in
      fill q first;
      ignore (drain q (List.length first));
      Alcotest.(check bool) "drained" true (Q.is_empty q);
      fill q second;
      drain q (List.length second) = sorted_oracle second)

let prop_interleaved =
  (* Interleaving adds and pops keeps the invariant: every pop returns the
     least remaining (time, seq), with its own src/dst/epoch columns. *)
  QCheck.Test.make ~count:300 ~name:"interleaved add/pop stays ordered"
    QCheck.(list_of_size (Gen.int_range 1 120) (int_range 0 30))
    (fun times ->
      let q = Q.create ~capacity:1 () in
      let pending = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun t ->
          let time = float_of_int t /. 2.0 in
          Q.push_deliver q ~time ~seq:!seq ~src:!seq ~dst:(!seq + 1)
            ~epoch:(!seq mod 3) !seq;
          pending := (time, !seq) :: !pending;
          incr seq;
          (* Pop every other step. *)
          if !seq mod 2 = 0 then begin
            let expect =
              List.sort
                (fun (t1, s1) (t2, s2) ->
                  match compare t1 t2 with 0 -> compare s1 s2 | c -> c)
                !pending
              |> List.hd
            in
            let t' = Q.min_time q and s' = Q.min_seq q in
            if Q.min_src q <> s' || Q.min_dst q <> s' + 1 then ok := false;
            if Q.min_payload q <> s' then ok := false;
            Q.drop_min q;
            if (t', s') <> expect then ok := false;
            pending := List.filter (fun e -> e <> expect) !pending
          end)
        times;
      !ok)

let suite =
  [
    Alcotest.test_case "empty queue raises" `Quick test_empty_raises;
    Alcotest.test_case "duplicate times drain in seq order" `Quick
      test_duplicate_times;
    Alcotest.test_case "min fields track the minimum" `Quick
      test_min_fields_track_min;
    Alcotest.test_case "local slots recycle" `Quick test_local_slots_recycle;
    QCheck_alcotest.to_alcotest prop_pop_order;
    QCheck_alcotest.to_alcotest prop_pop_order_after_drain;
    QCheck_alcotest.to_alcotest prop_interleaved;
  ]
