module Sync = Csap.Synchronizer
module SP = Csap_dsim.Sync_protocol
module SR = Csap_dsim.Sync_runner
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

(* An in-synch protocol: on every pulse divisible by w(e), send the pulse
   number; fold everything received. Deterministic, message-heavy, and its
   state depends on exactly which messages arrived at which pulse — a good
   probe for execution equivalence. *)
let tick_protocol =
  {
    SP.init = (fun _ ~me -> me * 1_000_003);
    on_pulse =
      (fun g ~me ~pulse ~inbox state ->
        let state =
          List.fold_left
            (fun acc (src, v) -> (acc * 31) + (src * 7) + v)
            state inbox
        in
        let sends =
          List.rev
            (G.fold_neighbors g me
               (fun acc u w _ ->
                 if pulse mod w = 0 then (u, (me * 100) + pulse) :: acc else acc)
               [])
        in
        (state, sends))
  }

let sorted_deliveries ds =
  List.sort (SP.compare_delivery ~cmp_payload:compare) ds

let equivalent_to_reference g outcome ~pulses =
  let reference = SR.run g tick_protocol ~pulses in
  outcome.Sync.states = reference.SR.states
  && sorted_deliveries outcome.Sync.deliveries
     = sorted_deliveries reference.SR.deliveries

let delay_models seed =
  [
    Csap_dsim.Delay.Exact;
    Csap_dsim.Delay.Near_zero;
    Csap_dsim.Delay.Uniform (Csap_graph.Rng.create seed);
    Csap_dsim.Delay.Jitter (Csap_graph.Rng.create (seed + 1));
  ]

let test_alpha_exact_simulation () =
  let g = G.create ~n:4 [ (0, 1, 2); (1, 2, 4); (2, 3, 1); (0, 3, 8) ] in
  List.iter
    (fun delay ->
      let o = Sync.run_alpha ~delay g tick_protocol ~pulses:12 in
      Alcotest.(check bool) "alpha simulates exactly" true
        (equivalent_to_reference g o ~pulses:12))
    (delay_models 31)

let test_beta_exact_simulation () =
  let g = Gen.lollipop 4 3 ~w:2 in
  List.iter
    (fun delay ->
      let o = Sync.run_beta ~delay g tick_protocol ~pulses:10 in
      Alcotest.(check bool) "beta simulates exactly" true
        (equivalent_to_reference g o ~pulses:10))
    (delay_models 41)

let test_gamma_exact_simulation () =
  let g = G.create ~n:5 [ (0, 1, 1); (1, 2, 2); (2, 3, 4); (3, 4, 1); (0, 4, 8) ] in
  List.iter
    (fun delay ->
      let o = Sync.run_gamma_w ~delay g tick_protocol ~pulses:16 in
      Alcotest.(check bool) "gamma_w simulates exactly" true
        (equivalent_to_reference g o ~pulses:16))
    (delay_models 51)

let test_gamma_rejects_unnormalized () =
  let g = G.create ~n:3 [ (0, 1, 3); (1, 2, 1) ] in
  Alcotest.check_raises "unnormalized"
    (Invalid_argument "Synchronizer.run_gamma_w: network not normalized")
    (fun () -> ignore (Sync.run_gamma_w g tick_protocol ~pulses:4))

let test_comm_split_accounting () =
  let g = Gen.cycle 6 ~w:2 in
  let o = Sync.run_gamma_w g tick_protocol ~pulses:8 in
  Alcotest.(check int) "split sums to total"
    o.Sync.total.Csap.Measures.comm
    (o.Sync.proto_comm + o.Sync.ack_comm + o.Sync.control_comm);
  Alcotest.(check bool) "acks mirror protocol" true
    (o.Sync.ack_comm = o.Sync.proto_comm)

let test_amortized_overheads_separate () =
  (* gamma_w must clean heavy edges lazily: on a normalized graph with one
     very heavy matching, alpha_w pays the heavy edges every pulse while
     gamma_w pays them once per W pulses. *)
  let heavy = 64 in
  let ring = List.init 12 (fun i -> (i, (i + 1) mod 12, 1)) in
  let chords = [ (0, 6, heavy); (2, 8, heavy); (4, 10, heavy) ] in
  let g = G.create ~n:12 (ring @ chords) in
  let pulses = 128 in
  let a = Sync.run_alpha g tick_protocol ~pulses in
  let c = Sync.run_gamma_w ~k:2 g tick_protocol ~pulses in
  Alcotest.(check bool)
    (Printf.sprintf "gamma_w overhead %.1f < alpha_w overhead %.1f"
       c.Sync.amortized_comm a.Sync.amortized_comm)
    true
    (c.Sync.amortized_comm < a.Sync.amortized_comm);
  Alcotest.(check bool) "gamma still exact" true
    (equivalent_to_reference g c ~pulses)

let test_partition_properties () =
  let g = Gen.grid 4 5 ~w:1 in
  let edges = List.init (G.m g) Fun.id in
  List.iter
    (fun k ->
      let p = Sync.Partition.build g ~edges ~k in
      (* Every vertex clustered; tree parents stay inside the cluster. *)
      Array.iteri
        (fun v c ->
          Alcotest.(check bool) "clustered" true (c >= 0);
          let parent = p.Sync.Partition.parent.(v) in
          if parent >= 0 then
            Alcotest.(check int) "parent same cluster" c
              p.Sync.Partition.cluster_of.(parent))
        p.Sync.Partition.cluster_of;
      (* Radius bound: hop radius <= log_k n. *)
      let bound =
        int_of_float (ceil (log (float_of_int (G.n g)) /. log (float_of_int k)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "radius %d <= log_%d n = %d"
           p.Sync.Partition.hop_radius k bound)
        true
        (p.Sync.Partition.hop_radius <= bound);
      (* Preferred edges: at most one per cluster pair. *)
      let pairs = Hashtbl.create 16 in
      List.iter
        (fun (a, b) ->
          let ca = p.Sync.Partition.cluster_of.(a)
          and cb = p.Sync.Partition.cluster_of.(b) in
          let key = (min ca cb, max ca cb) in
          Alcotest.(check bool) "unique pair" false (Hashtbl.mem pairs key);
          Hashtbl.replace pairs key ())
        p.Sync.Partition.preferred)
    [ 2; 3; 4 ]

let test_partition_disconnected_levels () =
  (* A level graph may be disconnected: clusters must stay within
     components. *)
  let g = G.create ~n:6 [ (0, 1, 1); (2, 3, 1); (4, 5, 1); (1, 2, 4) ] in
  let level0 = [ 0; 1; 2 ] in
  (* edge ids of weight-1 edges *)
  let p = Sync.Partition.build g ~edges:level0 ~k:2 in
  Alcotest.(check bool) "all vertices clustered" true
    (Array.for_all (fun c -> c >= 0) p.Sync.Partition.cluster_of)

let test_divisible_levels_exact_and_dearer () =
  (* The paper's literal level sets give the same (exact) simulation with
     strictly more control traffic than the partition form. *)
  let g =
    Csap.Normalize.graph
      (Gen.random_connected (Csap_graph.Rng.create 13) 16 ~extra_edges:16
         ~wmax:16)
  in
  let pulses = 32 in
  let part = Sync.run_gamma_w ~levels:`Partition g tick_protocol ~pulses in
  let divi = Sync.run_gamma_w ~levels:`Divisible g tick_protocol ~pulses in
  Alcotest.(check bool) "partition exact" true
    (equivalent_to_reference g part ~pulses);
  Alcotest.(check bool) "divisible exact" true
    (equivalent_to_reference g divi ~pulses);
  Alcotest.(check bool)
    (Printf.sprintf "divisible control %d >= partition control %d"
       divi.Sync.control_comm part.Sync.control_comm)
    true
    (divi.Sync.control_comm >= part.Sync.control_comm)

let prop_divisible_exact_random =
  QCheck.Test.make ~count:15
    ~name:"gamma_w (divisible levels) = synchronous reference"
    QCheck.(pair (Gen_qcheck.connected_graph_gen ~max_n:8 ~max_wmax:8 ()) (int_bound 1000))
    (fun (g0, seed) ->
      let g = Csap.Normalize.graph g0 in
      let pulses = 10 in
      let o =
        Sync.run_gamma_w ~levels:`Divisible
          ~delay:(Csap_dsim.Delay.Uniform (Csap_graph.Rng.create seed))
          g tick_protocol ~pulses
      in
      equivalent_to_reference g o ~pulses)

let prop_gamma_exact_random =
  QCheck.Test.make ~count:25 ~name:"gamma_w execution = synchronous reference"
    QCheck.(pair (Gen_qcheck.connected_graph_gen ~max_n:10 ~max_wmax:8 ()) (int_bound 1000))
    (fun (g0, seed) ->
      let g = Csap.Normalize.graph g0 in
      let pulses = 12 in
      let o =
        Sync.run_gamma_w
          ~delay:(Csap_dsim.Delay.Uniform (Csap_graph.Rng.create seed))
          g tick_protocol ~pulses
      in
      equivalent_to_reference g o ~pulses)

(* gamma_w behind the reliable shim under loss and duplication, over both
   level constructions, k in {2, 3} and weights up to 32 (levels 0-5).
   Every pulse divisible by 2^l opens round p / 2^l + 1 of level l, so
   with pulses >= W each level runs through its last round,
   pulses / 2^l + 1, and past its first. *)
let prop_gamma_reliable_faults =
  QCheck.Test.make ~count:20
    ~name:"gamma_w behind the shim under faults = synchronous reference"
    QCheck.(
      quad
        (Gen_qcheck.connected_graph_gen ~max_n:10 ~max_wmax:32 ())
        (int_bound 1000) (int_range 2 3) bool)
    (fun (g0, seed, k, divisible) ->
      let g = Csap.Normalize.graph g0 in
      let w = G.max_weight g in
      let pulses = w + (seed mod (w + 1)) in
      let levels = if divisible then `Divisible else `Partition in
      let o =
        Sync.run_gamma_w ~reliable:true
          ~faults:(Csap_dsim.Fault.seeded ~loss:0.2 ~dup:0.05 seed)
          ~k ~levels g tick_protocol ~pulses
      in
      equivalent_to_reference g o ~pulses)

(* spt-synch over gamma_w behind the shim, clean and lossy, pinned to the
   figures of the tuple-keyed round tables that the flat per-level arrays
   replaced: the same messages in the same order give the same measures,
   retransmissions and control traffic. *)
let test_spt_synch_pinned () =
  let g =
    Gen.random_connected (Csap_graph.Rng.create 7) 128 ~extra_edges:256
      ~wmax:8
  in
  let pulses = Csap_graph.Paths.diameter g + 1 in
  let measures ?faults () =
    let _, o =
      Sync.run_transformed ~reliable:true ?faults g
        (Csap.Spt_synch.protocol ~source:0)
        ~pulses
    in
    let m = o.Sync.total in
    Printf.sprintf "messages=%d comm=%d time=%h retrans=%d control=%d"
      m.Csap.Measures.messages m.Csap.Measures.comm m.Csap.Measures.time
      o.Sync.transport.Csap_dsim.Net.retransmissions o.Sync.control_comm
  in
  Alcotest.(check string) "clean-reliable"
    "messages=109234 comm=324718 time=0x1.0fp+11 retrans=7743 control=316414"
    (measures ());
  Alcotest.(check string) "loss 0.2, dup 0.05"
    "messages=136006 comm=415546 time=0x1.d0cp+13 retrans=26893 \
     control=407242"
    (measures ~faults:(Csap_dsim.Fault.seeded ~loss:0.2 ~dup:0.05 11) ())

let prop_alpha_exact_random =
  QCheck.Test.make ~count:25 ~name:"alpha_w execution = synchronous reference"
    QCheck.(pair (Gen_qcheck.connected_graph_gen ~max_n:10 ~max_wmax:9 ()) (int_bound 1000))
    (fun (g, seed) ->
      let pulses = 10 in
      let o =
        Sync.run_alpha
          ~delay:(Csap_dsim.Delay.Uniform (Csap_graph.Rng.create seed))
          g tick_protocol ~pulses
      in
      equivalent_to_reference g o ~pulses)

let suite =
  [
    Alcotest.test_case "alpha_w exact, all delays" `Quick
      test_alpha_exact_simulation;
    Alcotest.test_case "beta_w exact, all delays" `Quick
      test_beta_exact_simulation;
    Alcotest.test_case "gamma_w exact, all delays" `Quick
      test_gamma_exact_simulation;
    Alcotest.test_case "gamma_w rejects unnormalized nets" `Quick
      test_gamma_rejects_unnormalized;
    Alcotest.test_case "communication accounting splits" `Quick
      test_comm_split_accounting;
    Alcotest.test_case "gamma_w amortizes heavy edges" `Quick
      test_amortized_overheads_separate;
    Alcotest.test_case "partition properties" `Quick test_partition_properties;
    Alcotest.test_case "partition on disconnected levels" `Quick
      test_partition_disconnected_levels;
    Alcotest.test_case "divisible-levels ablation" `Quick
      test_divisible_levels_exact_and_dearer;
    Alcotest.test_case "spt-synch measures pinned behind the shim" `Quick
      test_spt_synch_pinned;
    QCheck_alcotest.to_alcotest prop_divisible_exact_random;
    QCheck_alcotest.to_alcotest prop_gamma_exact_random;
    QCheck_alcotest.to_alcotest prop_gamma_reliable_faults;
    QCheck_alcotest.to_alcotest prop_alpha_exact_random;
  ]
