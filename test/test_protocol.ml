module P = Csap.Protocol
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree
module Net = Csap_dsim.Net

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
  let spec = { Net.default with Net.delay } in
  let tree_of o =
    match P.Outcome.tree o with
    | Some t -> Tree.edges t
    | None -> Alcotest.fail "no tree in outcome"
  in
  let via_flood = P.execute (P.find_exn "flood") (P.Run.make ~delay g) in
  let direct_flood = Csap.Flood.run ~spec g ~source:0 in
  Alcotest.(check bool) "flood measures identical" true
    (via_flood.P.Outcome.measures = direct_flood.Csap.Flood.measures);
  Alcotest.(check bool) "flood tree identical" true
    (tree_of via_flood = Tree.edges direct_flood.Csap.Flood.tree);
  let via_ghs = P.execute (P.find_exn "mst-ghs") (P.Run.make ~delay g) in
  let direct_ghs = Csap.Mst_ghs.run ~spec g in
  Alcotest.(check bool) "ghs measures identical" true
    (via_ghs.P.Outcome.measures = direct_ghs.Csap.Mst_ghs.measures);
  Alcotest.(check bool) "ghs tree identical" true
    (tree_of via_ghs = Tree.edges direct_ghs.Csap.Mst_ghs.mst);
  let via_spt = P.execute (P.find_exn "spt-synch") (P.Run.make ~delay g) in
  let direct_spt = Csap.Spt_synch.run ~spec g ~source:0 in
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
          (fun () -> ignore (P.execute entry (P.Run.make ~root:99 g)))
      end;
      if M.caps.P.fixed_family then begin
        Alcotest.check_raises
          (M.name ^ ": faults rejected")
          (Invalid_argument (M.name ^ ": fault plans not supported"))
          (fun () ->
            ignore
              (P.execute entry
                 (P.Run.make ~faults:(Csap_dsim.Fault.seeded ~loss:0.1 1) g)));
        Alcotest.check_raises
          (M.name ^ ": reliable rejected")
          (Invalid_argument (M.name ^ ": reliable transport not supported"))
          (fun () -> ignore (P.execute entry (P.Run.make ~reliable:true g)))
      end;
      (* Adversary rejections name their knob uniformly, like domains. *)
      if not M.caps.P.supports_adaptive then
        Alcotest.check_raises
          (M.name ^ ": adaptive rejected")
          (Invalid_argument
             (M.name ^ ": adversary: adaptive adversaries not supported"))
          (fun () ->
            ignore
              (P.execute entry
                 (P.Run.make ~delay:(Csap_dsim.Delay.greedy_commax ()) g))))
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

(* Every entry but the fixed-family one runs over [Net.make], so every
   one survives seeded loss behind the shim and still passes its
   invariant. *)
let test_reliable_under_loss () =
  let g = Gen.grid 3 3 ~w:4 in
  let faults = Csap_dsim.Fault.seeded ~loss:0.1 5 in
  let covered =
    List.filter
      (fun entry ->
        let (module M : P.S) = entry in
        not M.caps.P.fixed_family)
      P.registry
  in
  Alcotest.(check (list string))
    "every entry but lower-bound-gn"
    (List.filter (fun n -> n <> "lower-bound-gn") expected_names)
    (List.map (fun (module M : P.S) -> M.name) covered);
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
    (P.execute (P.find_exn name) (P.Run.make ~faults g)).P.Outcome.restarts
  in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " counts both restarts") 2 (restarts name))
    [ "dfs-token"; "flood"; "mst-hybrid"; "spt-async" ]

(* The synchronizer entries report their transport like the others: one
   crash behind the shim is one restart. *)
let test_sync_restarts_counted () =
  let g = Gen.grid 3 3 ~w:4 in
  let faults =
    Csap_dsim.Fault.seeded
      ~crashes:[ { Csap_dsim.Fault.vertex = 4; at = 1.0; restart = 5.0 } ]
      1
  in
  List.iter
    (fun name ->
      let o =
        P.execute (P.find_exn name) (P.Run.make ~faults ~reliable:true g)
      in
      Alcotest.(check int) (name ^ " restarts") 1 o.P.Outcome.restarts)
    [ "spt-synch"; "sync-alpha"; "sync-beta"; "sync-gamma-w" ]

(* Every standalone run taking a root or source checks its range with
   one message shape, before building anything. *)
let test_standalone_root_checked () =
  let g = Gen.grid 3 3 ~w:4 and r = 99 in
  let values = Array.make 9 0 in
  List.iter
    (fun (fn, run) ->
      Alcotest.check_raises fn
        (Invalid_argument (fn ^ ": root 99 out of range [0, 9)"))
        run)
    Csap.
      [
        ("Flood.run", fun () -> ignore (Flood.run g ~source:r));
        ("Dfs_token.run", fun () -> ignore (Dfs_token.run g ~root:r));
        ("Con_hybrid.run", fun () -> ignore (Con_hybrid.run g ~root:r));
        ( "Centr_growth.run_mst",
          fun () -> ignore (Centr_growth.run_mst g ~root:r) );
        ( "Centr_growth.run_spt",
          fun () -> ignore (Centr_growth.run_spt g ~root:r) );
        ("Mst_hybrid.run", fun () -> ignore (Mst_hybrid.run g ~root:r));
        ("Spt_synch.run", fun () -> ignore (Spt_synch.run g ~source:r));
        ( "Spt_synch.run_synchronous",
          fun () -> ignore (Spt_synch.run_synchronous g ~source:r) );
        ( "Spt_recur.run",
          fun () -> ignore (Spt_recur.run g ~source:r ~strip:2) );
        ("Spt_hybrid.run", fun () -> ignore (Spt_hybrid.run g ~source:r));
        ("Spt_async.run", fun () -> ignore (Spt_async.run g ~source:r));
        ( "Slt_distributed.run",
          fun () -> ignore (Slt_distributed.run g ~root:r) );
        ( "Global_func.run_optimal",
          fun () ->
            ignore (Global_func.run_optimal g ~root:r ~values Global_func.sum)
        );
        ( "Global_func.broadcast",
          fun () -> ignore (Global_func.broadcast g ~source:r ~payload:1) );
      ]

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
  ignore (P.execute (P.find_exn "flood") (P.Run.make ~trace:prefix g));
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

(* slt-dist's invariant: the tree is Slt.build's, parent for parent, and
   shallow-light. The seed-1 random n=32 cell failed the old per-vertex
   stretch check although its tree is Slt.build's. *)
let test_slt_dist_seed1 () =
  let module Cell = Csap_farm.Cell in
  match
    (Cell.run
       (Cell.make ~family:"random" ~n:32 ~seed:1 ~check:true "slt-dist"))
      .Cell.result
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "random n=32 seed 1: %s" (Cell.error_message e)

(* A plain shortest-path tree passed the old check (stretch 1, weight
   within (1+2/(q-1))·V) but is not the shallow-light tree. *)
let test_slt_dist_rejects_spt () =
  let g =
    Gen.random_connected (Csap_graph.Rng.create 0) 16 ~extra_edges:20 ~wmax:8
  in
  let entry = P.find_exn "slt-dist" in
  let (module M : P.S) = entry in
  let cfg = P.Run.make g in
  let o = P.execute entry cfg in
  (match M.invariant cfg o with
  | Ok () -> ()
  | Error e -> Alcotest.failf "slt-dist's own tree rejected: %s" e);
  let spt =
    {
      o with
      P.Outcome.payload =
        P.Outcome.Spanning_tree (Csap_graph.Paths.spt g ~src:0);
    }
  in
  match M.invariant cfg spt with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "a shortest-path tree passed as the SLT"

(* The SPT and flood invariants name the first vertex off its shortest
   distance. On the cycle 0-1 (2), 1-2 (2), 0-2 (3) rooted at 0 the MST
   path puts vertex 2 at depth 4, one more than its distance 3. *)
let test_tree_invariants_reject () =
  let g = G.create ~n:3 [ (0, 1, 2); (1, 2, 2); (0, 2, 3) ] in
  let mst = Tree.of_parents ~root:0 ~parents:[| -1; 0; 1 |] ~weights:[| 0; 2; 2 |] in
  let cfg = P.Run.make g in
  let invariant name payload =
    let entry = P.find_exn name in
    let (module M : P.S) = entry in
    let o = P.execute entry cfg in
    match M.invariant cfg { o with P.Outcome.payload } with
    | Ok () -> "ok"
    | Error e -> e
  in
  Alcotest.(check string) "spt-synch, MST in place of the SPT"
    "vertex 2: tree distance 4 <> shortest distance 3"
    (invariant "spt-synch" (P.Outcome.Spanning_tree mst));
  let wave arrival = P.Outcome.Flood_wave { tree = mst; arrival } in
  Alcotest.(check string) "flood, late arrival"
    "vertex 2: arrival 5 vs shortest distance 3"
    (invariant "flood" (wave [| 0.0; 2.0; 5.0 |]));
  Alcotest.(check string) "flood, early arrival under exact delays"
    "vertex 2: arrival 2.5 vs shortest distance 3"
    (invariant "flood" (wave [| 0.0; 2.0; 2.5 |]));
  Alcotest.(check string) "flood, shortest arrivals" "ok"
    (invariant "flood" (wave [| 0.0; 2.0; 3.0 |]))

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
    Alcotest.test_case "synchronizer entries count restarts" `Quick
      test_sync_restarts_counted;
    Alcotest.test_case "standalone runs check their root" `Quick
      test_standalone_root_checked;
    Alcotest.test_case "traces dumped and parseable" `Quick test_trace_dump;
    Alcotest.test_case "slt-dist passes on random n=32 seed 1" `Quick
      test_slt_dist_seed1;
    Alcotest.test_case "slt-dist rejects a shortest-path tree" `Quick
      test_slt_dist_rejects_spt;
    Alcotest.test_case "tree invariants name the first vertex off its distance"
      `Quick test_tree_invariants_reject;
  ]
