let int_heap () = Csap_graph.Heap.create ~cmp:compare

let test_empty () =
  let h = int_heap () in
  Alcotest.(check bool) "empty" true (Csap_graph.Heap.is_empty h);
  Alcotest.(check (option int)) "peek" None (Csap_graph.Heap.peek_min h);
  Alcotest.(check (option int)) "pop" None (Csap_graph.Heap.pop_min h)

let test_order () =
  let h = int_heap () in
  List.iter (Csap_graph.Heap.add h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list int))
    "sorted drain" [ 1; 2; 3; 5; 7; 8; 9 ]
    (Csap_graph.Heap.to_sorted_list h)

let test_duplicates () =
  let h = int_heap () in
  List.iter (Csap_graph.Heap.add h) [ 4; 4; 4; 1; 1 ];
  Alcotest.(check (list int))
    "duplicates kept" [ 1; 1; 4; 4; 4 ]
    (Csap_graph.Heap.to_sorted_list h)

let test_of_list () =
  let h = Csap_graph.Heap.of_list ~cmp:compare [ 9; 1; 5; 5; 0 ] in
  Alcotest.(check int) "size" 5 (Csap_graph.Heap.size h);
  Alcotest.(check (option int)) "min" (Some 0) (Csap_graph.Heap.peek_min h)

let test_interleaved () =
  let h = int_heap () in
  Csap_graph.Heap.add h 10;
  Csap_graph.Heap.add h 5;
  Alcotest.(check (option int)) "pop1" (Some 5) (Csap_graph.Heap.pop_min h);
  Csap_graph.Heap.add h 1;
  Csap_graph.Heap.add h 20;
  Alcotest.(check (option int)) "pop2" (Some 1) (Csap_graph.Heap.pop_min h);
  Alcotest.(check (option int)) "pop3" (Some 10) (Csap_graph.Heap.pop_min h);
  Alcotest.(check (option int)) "pop4" (Some 20) (Csap_graph.Heap.pop_min h)

let prop_heap_sort =
  QCheck.Test.make ~count:200 ~name:"heap drains sorted"
    QCheck.(list int)
    (fun xs ->
      let h = Csap_graph.Heap.of_list ~cmp:compare xs in
      Csap_graph.Heap.to_sorted_list h = List.sort compare xs)

let prop_heap_min =
  QCheck.Test.make ~count:200 ~name:"peek_min is the minimum"
    QCheck.(list_of_size (Gen.int_range 1 50) int)
    (fun xs ->
      let h = Csap_graph.Heap.of_list ~cmp:compare xs in
      Csap_graph.Heap.peek_min h = Some (List.fold_left min (List.hd xs) xs))

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "drains in order" `Quick test_order;
    Alcotest.test_case "keeps duplicates" `Quick test_duplicates;
    Alcotest.test_case "of_list heapifies" `Quick test_of_list;
    Alcotest.test_case "interleaved add/pop" `Quick test_interleaved;
    QCheck_alcotest.to_alcotest prop_heap_sort;
    QCheck_alcotest.to_alcotest prop_heap_min;
  ]
