module P = Csap.Protocol
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree

let expected_names =
  [
    "flood";
    "dfs-token";
    "con-hybrid";
    "mst-centr";
    "mst-ghs";
    "mst-fast";
    "mst-hybrid";
    "spt-centr";
    "spt-synch";
    "spt-recur";
    "spt-hybrid";
    "spt-async";
    "slt-dist";
    "global-sum";
    "clock-alpha";
    "clock-beta";
    "clock-gamma";
    "sync-alpha";
    "sync-beta";
    "sync-gamma-w";
    "lower-bound-gn";
  ]

(* The registry is complete: every protocol in the library, by name, in
   paper order. A protocol added to lib/core must be added both there and
   to this list. *)
let test_completeness () =
  Alcotest.(check (list string)) "registry names" expected_names (P.names ());
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " found") true (P.find n <> None))
    expected_names;
  Alcotest.(check bool) "unknown name rejected" true (P.find "nope" = None);
  Alcotest.check_raises "find_exn raises"
    (Invalid_argument "Protocol.find_exn: unknown protocol \"nope\"")
    (fun () -> ignore (P.find_exn "nope"))

(* Every entry runs cleanly and passes its own oracle invariant. *)
let smoke g =
  List.iter
    (fun entry ->
      let (module M : P.S) = entry in
      let cfg = P.Run.make g in
      let o = P.execute entry cfg in
      (match M.invariant cfg o with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invariant failed: %s" M.name e);
      Alcotest.(check string)
        (M.name ^ ": outcome labelled")
        M.name o.P.Outcome.protocol;
      Alcotest.(check bool)
        (M.name ^ ": communication positive")
        true
        (o.P.Outcome.measures.Csap.Measures.comm > 0))
    P.registry

let test_smoke_k4 () = smoke (Gen.complete 4 ~w:3)

let test_smoke_random () =
  smoke
    (Gen.random_connected (Csap_graph.Rng.create 7) 10 ~extra_edges:8 ~wmax:6)

(* Zero-fault registry runs are bit-identical to direct calls: the
   registry adds routing, not semantics. *)
let test_bit_identical () =
  let g = Gen.grid 3 3 ~w:4 in
  let delay = Csap_dsim.Delay.seeded 42 in
  let tree_of o =
    match P.Outcome.tree o with
    | Some t -> Tree.edges t
    | None -> Alcotest.fail "no tree in outcome"
  in
  let via_flood = P.run ~delay (P.find_exn "flood") g in
  let direct_flood = Csap.Flood.run ~delay g ~source:0 in
  Alcotest.(check bool) "flood measures identical" true
    (via_flood.P.Outcome.measures = direct_flood.Csap.Flood.measures);
  Alcotest.(check bool) "flood tree identical" true
    (tree_of via_flood = Tree.edges direct_flood.Csap.Flood.tree);
  let via_ghs = P.run ~delay (P.find_exn "mst-ghs") g in
  let direct_ghs = Csap.Mst_ghs.run ~delay g in
  Alcotest.(check bool) "ghs measures identical" true
    (via_ghs.P.Outcome.measures = direct_ghs.Csap.Mst_ghs.measures);
  Alcotest.(check bool) "ghs tree identical" true
    (tree_of via_ghs = Tree.edges direct_ghs.Csap.Mst_ghs.mst);
  let via_spt = P.run ~delay (P.find_exn "spt-synch") g in
  let direct_spt = Csap.Spt_synch.run ~delay g ~source:0 in
  Alcotest.(check bool) "spt-synch measures identical" true
    (via_spt.P.Outcome.measures = direct_spt.Csap.Spt_synch.measures);
  Alcotest.(check bool) "spt-synch tree identical" true
    (tree_of via_spt = Tree.edges direct_spt.Csap.Spt_synch.tree)

(* Uniform validation: one root-range message shape for every protocol
   that needs a root, and capability rejections for the rest. *)
let test_validation () =
  let g = Gen.complete 4 ~w:3 in
  List.iter
    (fun entry ->
      let (module M : P.S) = entry in
      if M.caps.P.needs_root then begin
        let expected =
          Printf.sprintf "%s: root 99 out of range [0, %d)" M.name (G.n g)
        in
        Alcotest.check_raises
          (M.name ^ ": root validated")
          (Invalid_argument expected)
          (fun () -> ignore (P.run ~root:99 entry g))
      end;
      if not M.caps.P.supports_faults then
        Alcotest.check_raises
          (M.name ^ ": faults rejected")
          (Invalid_argument (M.name ^ ": fault plans not supported"))
          (fun () ->
            ignore
              (P.run ~faults:(Csap_dsim.Fault.seeded ~loss:0.1 1) entry g));
      if not M.caps.P.supports_reliable then
        Alcotest.check_raises
          (M.name ^ ": reliable rejected")
          (Invalid_argument (M.name ^ ": reliable transport not supported"))
          (fun () -> ignore (P.run ~reliable:true entry g));
      (* Adversary rejections name their knob uniformly, like domains. *)
      if not M.caps.P.supports_adaptive then
        Alcotest.check_raises
          (M.name ^ ": adaptive rejected")
          (Invalid_argument
             (M.name ^ ": adversary: adaptive adversaries not supported"))
          (fun () ->
            ignore
              (P.run ~adversary:(Csap_dsim.Adversary.greedy_commax ()) entry
                 g));
      Alcotest.check_raises
        (M.name ^ ": adversary/delay conflict rejected")
        (Invalid_argument
           (M.name ^ ": adversary: conflicts with an explicit delay model"))
        (fun () ->
          ignore
            (P.run ~delay:Csap_dsim.Delay.Exact
               ~adversary:(Csap_dsim.Adversary.of_delay Csap_dsim.Delay.Exact)
               entry g)))
    P.registry;
  (* Only the lower-bound family (which ignores its delay model) opts
     out of adaptivity. *)
  List.iter
    (fun entry ->
      let (module M : P.S) = entry in
      Alcotest.(check bool)
        (M.name ^ ": adv capability")
        (M.name <> "lower-bound-gn")
        M.caps.P.supports_adaptive)
    P.registry

(* Every fault-capable entry survives seeded loss behind the shim and
   still passes its invariant — the fault roster extends registry-wide,
   not just to the original hand-wired three. *)
let test_reliable_under_loss () =
  let g = Gen.grid 3 3 ~w:4 in
  let faults = Csap_dsim.Fault.seeded ~loss:0.1 5 in
  let covered =
    List.filter
      (fun entry ->
        let (module M : P.S) = entry in
        M.caps.P.supports_faults && M.caps.P.supports_reliable)
      P.registry
  in
  Alcotest.(check bool) "strictly more than three fault targets" true
    (List.length covered > 3);
  List.iter
    (fun entry ->
      let (module M : P.S) = entry in
      let cfg = P.Run.make ~faults ~reliable:true g in
      let o = P.execute entry cfg in
      match M.invariant cfg o with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s: invariant failed under loss: %s" M.name e)
    covered

(* Restarts are transport bookkeeping: every entry counts them the same
   way, shim or not. Two crash windows that end before the wave reaches
   the crashed vertices, so the unshimmed runs still complete. *)
let test_plain_restarts_counted () =
  let g = Gen.grid 4 4 ~w:4 in
  let faults =
    Csap_dsim.Fault.seeded
      ~crashes:
        [
          { Csap_dsim.Fault.vertex = 10; at = 0.0; restart = 1.0 };
          { Csap_dsim.Fault.vertex = 15; at = 0.5; restart = 2.0 };
        ]
      1
  in
  let restarts name =
    (P.run ~faults (P.find_exn name) g).P.Outcome.restarts
  in
  Alcotest.(check int) "dfs-token counts both restarts" 2
    (restarts "dfs-token");
  Alcotest.(check int) "plain flood counts the same" (restarts "dfs-token")
    (restarts "flood")

(* cfg.trace dumps one parseable JSONL trace per engine run. *)
let test_trace_dump () =
  let g = Gen.complete 4 ~w:3 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "csap-protocol-test-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let prefix = Filename.concat dir "t" in
  ignore (P.run ~trace:prefix (P.find_exn "flood") g);
  let dumped = Sys.readdir dir in
  Alcotest.(check bool) "at least one trace dumped" true
    (Array.length dumped > 0);
  Array.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%s parses and is non-empty" f)
        true
        (Csap_dsim.Trace.length
           (Csap_dsim.Trace.load_jsonl (Filename.concat dir f))
        > 0))
    dumped;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) dumped;
  Sys.rmdir dir

(* Every entry declares machine-checkable cost claims, and those claims
   speak only in the variables its category is allowed to mention (a
   clock claim may use d and W; an MST claim may not). *)
let test_claims_complete () =
  List.iter
    (fun entry ->
      let (module M : P.S) = entry in
      Alcotest.(check bool)
        (M.name ^ ": has at least one claim")
        true (M.claimed <> []);
      Alcotest.(check bool)
        (M.name ^ ": claims a communication bound")
        true
        (List.exists (fun c -> c.P.Claim.metric = P.Claim.Comm) M.claimed);
      let allowed = P.allowed_vars M.category in
      List.iter
        (fun c ->
          let b = c.P.Claim.bound in
          List.iter
            (fun v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s uses allowed var %s" M.name
                   (P.Claim.to_string c) (Csap.Bound.var_name v))
                true (List.mem v allowed))
            (Csap.Bound.vars b);
          (* Claims are stored canonically and survive a print/parse
             round trip, so tables and the CLI show exactly what is
             checked. *)
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s is canonical" M.name (P.Claim.to_string c))
            true
            (Csap.Bound.equal b (Csap.Bound.canon b)
            && Csap.Bound.equal b
                 (Csap.Bound.of_string_exn (Csap.Bound.to_string b))))
        M.claimed)
    P.registry

(* The [bounds] listing is the registry: same names, same order. The CI
   job diffs the actual CLI output; this pins the library-side source
   both draw from. *)
let test_bounds_names_match_registry () =
  Alcotest.(check (list string))
    "claim-bearing names = registry names" expected_names
    (List.filter_map
       (fun entry ->
         let (module M : P.S) = entry in
         if M.claimed <> [] then Some M.name else None)
       P.registry)

let suite =
  [
    Alcotest.test_case "registry is complete" `Quick test_completeness;
    Alcotest.test_case "every entry has checkable claims" `Quick
      test_claims_complete;
    Alcotest.test_case "bounds listing matches registry" `Quick
      test_bounds_names_match_registry;
    Alcotest.test_case "all entries pass on K4" `Quick test_smoke_k4;
    Alcotest.test_case "all entries pass on a random family" `Quick
      test_smoke_random;
    Alcotest.test_case "registry runs bit-identical to direct calls" `Quick
      test_bit_identical;
    Alcotest.test_case "uniform root and capability validation" `Quick
      test_validation;
    Alcotest.test_case "fault-capable entries survive loss" `Quick
      test_reliable_under_loss;
    Alcotest.test_case "plain runs count restarts" `Quick
      test_plain_restarts_counted;
    Alcotest.test_case "traces dumped and parseable" `Quick test_trace_dump;
  ]
