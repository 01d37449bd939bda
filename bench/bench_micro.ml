(* Bechamel micro-benchmarks: per-operation cost (with OLS fit) of the
   sequential kernels behind each figure — one Test.make per table —
   plus before/after pairs for the hot-path work: the edge lookup
   behind Engine.send (adjacency scan vs the graph's sorted index) and the
   all-sources diameter (lazy-deletion tuple heap vs the indexed heap
   with decrease_key). Always run on the main domain. *)

(* The boxed event queue is benchmarked here on purpose — it is the
   "before" half of the send-path pair. *)
[@@@alert "-boxed_oracle"]

open Bechamel

module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module E = Csap_dsim.Engine

let graph =
  lazy
    (Gen.random_connected (Csap_graph.Rng.create 77) 64 ~extra_edges:128
       ~wmax:32)

let bkj = lazy (Gen.bkj_star_cycle 48 ~heavy:200)

(* Before/after instances: a dense n = 96 network for the send-heavy
   flood and the edge lookup, and an n = 256 sparse random network for
   the n-Dijkstra diameter sweep. *)
let dense96 = lazy (Gen.complete 96 ~w:4)

let sparse256 =
  lazy
    (Gen.random_connected (Csap_graph.Rng.create 9) 256 ~extra_edges:512
       ~wmax:32)

(* Instances for the later before/after pairs: the CSR relaxation scan
   (flat rows vs boxed tuples) at n = 256 and the extrema at n = 512
   (all-sources sweep vs eccentricity-bound sweep). *)
let sparse512 =
  lazy
    (Gen.random_connected (Csap_graph.Rng.create 13) 512 ~extra_edges:1024
       ~wmax:32)

type msg = Wave

(* A bare flood (no tree bookkeeping): ~2 sends per edge, so the run cost
   is the per-message hot path — Engine.send's edge lookup plus two event
   queue operations. [queue] selects the historical or the optimised
   queue. *)
let flood_with queue g =
  let n = G.n g in
  let eng = E.create ~event_queue:queue g in
  let reached = Array.make n false in
  let forward v ~except =
    G.iter_neighbors g v (fun u _ _ ->
        if u <> except then E.send eng ~src:v ~dst:u Wave)
  in
  for v = 0 to n - 1 do
    E.set_handler eng v (fun ~src Wave ->
        if not reached.(v) then begin
          reached.(v) <- true;
          forward v ~except:src
        end)
  done;
  E.schedule eng ~delay:0.0 (fun () ->
      reached.(0) <- true;
      forward 0 ~except:(-1));
  ignore (E.run eng)

(* One-shot allocation gauge for the send path: arm and run a flood
   once to warm the engine (queue capacity grown, handler tables
   filled), re-arm, then measure minor-heap bytes across the second run
   on the same engine and divide by that run's message count. With
   growth pre-paid the quotient is the true per-message footprint of
   [Engine.send] plus the queue push/pop — ~0 B for the packed SOA
   queue, ~10 words for the boxed oracle. *)
let flood_bytes_per_msg queue g =
  let n = G.n g in
  let eng = E.create ~event_queue:queue g in
  let reached = Array.make n false in
  let forward v ~except =
    G.iter_neighbors g v (fun u _ _ ->
        if u <> except then E.send eng ~src:v ~dst:u Wave)
  in
  let arm () =
    Array.fill reached 0 n false;
    for v = 0 to n - 1 do
      E.set_handler eng v (fun ~src Wave ->
          if not reached.(v) then begin
            reached.(v) <- true;
            forward v ~except:src
          end)
    done;
    E.schedule eng ~delay:0.0 (fun () ->
        reached.(0) <- true;
        forward 0 ~except:(-1))
  in
  arm ();
  ignore (E.run eng);
  arm ();
  let msgs0 = (E.metrics eng).Csap_dsim.Metrics.messages in
  let w0 = Gc.minor_words () in
  ignore (E.run eng);
  let w1 = Gc.minor_words () in
  let msgs = (E.metrics eng).Csap_dsim.Metrics.messages - msgs0 in
  (w1 -. w0) *. 8.0 /. float_of_int (max 1 msgs)

(* [find g u v] for every ordered pair of distinct vertices: the edge
   lookup [Engine.send] makes once per message. *)
let lookup_all find g =
  let n = G.n g in
  let acc = ref 0 in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then acc := !acc + find g u v
    done
  done;
  !acc

(* The pre-index diameter: n independent lazy-deletion Dijkstras, fresh
   buffers each time. *)
let diameter_lazy g =
  let n = G.n g in
  let best = ref 0 in
  for src = 0 to n - 1 do
    let s = Csap_graph.Paths.dijkstra_lazy g ~src in
    Array.iter
      (fun d -> if d <> max_int && d > !best then best := d)
      s.Csap_graph.Paths.dist
  done;
  !best

(* The to_jsonl pair: the trace of a seeded-delay flood on dense96
   (~18k Send/Deliver records), written by the Printf writer the library
   used before the direct one, and by [Trace.to_jsonl]. *)
let flood_trace =
  lazy
    (let _, traces =
       Csap_dsim.Trace.with_collector (fun () ->
           Csap.Flood.run ~delay:(Csap_dsim.Delay.seeded 1)
             (Lazy.force dense96) ~source:0)
     in
     List.hd traces)

let printf_jsonl tr =
  let module T = Csap_dsim.Trace in
  let kind = function
    | T.Send -> "send"
    | T.Deliver -> "deliver"
    | T.Local -> "local"
    | T.Dropped -> "dropped"
    | T.Dup -> "dup"
    | T.Decision -> "decision"
  in
  let buf = Buffer.create (64 * (T.length tr + 1)) in
  Array.iter
    (fun ev ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"kind\":\"%s\",\"time\":%.17g,\"seq\":%d,\"edge\":%d,\"dir\":%d,\"nth\":%d,\"src\":%d,\"dst\":%d,\"delay\":%.17g}"
           (kind ev.T.kind) ev.T.time ev.T.seq ev.T.edge ev.T.dir ev.T.nth
           ev.T.src ev.T.dst ev.T.delay);
      Buffer.add_char buf '\n')
    (T.events tr);
  Buffer.contents buf

let tests =
  [
    (* F1/F5: the SLT construction. *)
    Test.make ~name:"f5: slt-build"
      (Staged.stage (fun () ->
           ignore (Csap.Slt.build ~q:2.0 (Lazy.force bkj) ~root:0)));
    (* F3: the sequential MST reference. *)
    Test.make ~name:"f3: mst-prim"
      (Staged.stage (fun () ->
           ignore (Csap_graph.Mst.prim (Lazy.force graph) ~root:0)));
    (* F4: the sequential SPT reference. *)
    Test.make ~name:"f4: dijkstra"
      (Staged.stage (fun () ->
           ignore (Csap_graph.Paths.dijkstra (Lazy.force graph) ~src:0)));
    (* F2/F7: the lower-bound family generator. *)
    Test.make ~name:"f7: gn-generator"
      (Staged.stage (fun () ->
           ignore (Gen.lower_bound_gn 32 ~x:8)));
    (* CS: the tree edge-cover preprocessing of gamma*. *)
    Test.make ~name:"cs: tree-edge-cover"
      (Staged.stage (fun () ->
           ignore (Csap_cover.Tree_cover.build (Gen.chorded_cycle 16 ~chord_w:64))));
    (* SY: the per-level cluster partition of gamma_w. *)
    Test.make ~name:"sy: partition"
      (Staged.stage (fun () ->
           let g = Lazy.force graph in
           let edges = List.init (Csap_graph.Graph.m g) Fun.id in
           ignore (Csap.Synchronizer.Partition.build g ~edges ~k:2)));
    (* CT: one controlled-flood event loop (end to end, small). *)
    Test.make ~name:"ct: flood-run"
      (Staged.stage (fun () ->
           ignore (Csap.Flood.run (Lazy.force graph) ~source:0)));
    (* Before/after: the edge lookup of the send path — adjacency scan
       vs the graph's sorted index. *)
    Test.make ~name:"lookup: dense96 scan"
      (Staged.stage (fun () ->
           ignore (lookup_all G.edge_id_between_scan (Lazy.force dense96))));
    Test.make ~name:"lookup: dense96 indexed"
      (Staged.stage (fun () ->
           ignore (lookup_all G.edge_id_between (Lazy.force dense96))));
    (* Before/after: the event queue alone — boxed record heap vs the
       allocation-free SOA queue. *)
    Test.make ~name:"engine: send-path boxed"
      (Staged.stage (fun () -> flood_with E.Boxed (Lazy.force dense96)));
    Test.make ~name:"engine: send-path soa"
      (Staged.stage (fun () -> flood_with E.Packed (Lazy.force dense96)));
    (* Before/after: the diameter sweep's Dijkstra core. Both sides run
       all n sources, so the pair measures the heap, not the sweep. *)
    Test.make ~name:"spt: diameter n256 lazy"
      (Staged.stage (fun () -> ignore (diameter_lazy (Lazy.force sparse256))));
    Test.make ~name:"spt: diameter n256 indexed"
      (Staged.stage (fun () ->
           ignore
             (Csap_graph.Paths.extrema_seq (Lazy.force sparse256))
               .Csap_graph.Paths.diameter));
    (* Before/after: the relaxation scan — boxed tuple rows vs flat CSR. *)
    Test.make ~name:"csr: dijkstra n256 tuple"
      (Staged.stage (fun () ->
           ignore (Csap_graph.Paths.dijkstra_tuple (Lazy.force sparse256) ~src:0)));
    Test.make ~name:"csr: dijkstra n256 flat"
      (Staged.stage (fun () ->
           ignore (Csap_graph.Paths.dijkstra (Lazy.force sparse256) ~src:0)));
    (* Before/after: the extrema, n source Dijkstras vs the
       eccentricity-bound sweep. *)
    Test.make ~name:"extrema: n512 all-sources"
      (Staged.stage (fun () ->
           ignore (Csap_graph.Paths.extrema_seq (Lazy.force sparse512))));
    Test.make ~name:"extrema: n512 bounded"
      (Staged.stage (fun () ->
           ignore (Csap_graph.Paths.extrema (Lazy.force sparse512))));
    (* Before/after: JSONL trace dumps — Printf per record vs the direct
       writer. *)
    Test.make ~name:"trace: to_jsonl n~20k printf"
      (Staged.stage (fun () -> ignore (printf_jsonl (Lazy.force flood_trace))));
    Test.make ~name:"trace: to_jsonl n~20k direct"
      (Staged.stage (fun () ->
           ignore (Csap_dsim.Trace.to_jsonl (Lazy.force flood_trace))));
  ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let find_ns rows needle =
  match List.find_opt (fun (name, _) -> contains name needle) rows with
  | Some (_, ns) -> ns
  | None -> nan

(* Runs the suite, prints the tables and returns every (name, value) row —
   kernels in ns/run plus the derived speedup ratios — for the JSON dump. *)
let run () =
  Report.heading "MICRO" "bechamel micro-benchmarks (sequential kernels)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let test = Test.make_grouped ~name:"csap" tests in
  let raw = Benchmark.all cfg [ instance ] test in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Report.table ~columns:[ "kernel"; "ns/run" ]
    (List.map (fun (name, ns) -> [ Report.Str name; Report.Float ns ]) rows);
  let speedups =
    [
      ( "speedup: edge lookup dense96 (scan/indexed)",
        find_ns rows "lookup: dense96 scan"
        /. find_ns rows "lookup: dense96 indexed" );
      ( "speedup: diameter n256 (lazy/indexed)",
        find_ns rows "diameter n256 lazy" /. find_ns rows "diameter n256 indexed"
      );
      ( "speedup: dijkstra n256 (tuple/csr)",
        find_ns rows "dijkstra n256 tuple" /. find_ns rows "dijkstra n256 flat"
      );
      ( "speedup: extrema n512 (all-sources/bounded)",
        find_ns rows "extrema: n512 all-sources"
        /. find_ns rows "extrema: n512 bounded" );
      ( "speedup: engine send-path (boxed/soa)",
        find_ns rows "send-path boxed" /. find_ns rows "send-path soa" );
      ( "speedup: trace to_jsonl n~20k (printf/direct)",
        find_ns rows "to_jsonl n~20k printf"
        /. find_ns rows "to_jsonl n~20k direct" );
    ]
  in
  Report.subheading "hot-path before/after (ratios > 1 mean faster now)";
  Report.table ~columns:[ "workload"; "speedup" ]
    (List.map (fun (name, x) -> [ Report.Str name; Report.Float x ]) speedups);
  (* One-shot gauges (not bechamel-timed): minor-heap bytes allocated per
     message on the warmed send path. CI holds the soa figure to a hard
     ceiling so a boxing regression anywhere on the path fails fast. *)
  let gauges =
    [
      ( "alloc: send-path boxed bytes/msg",
        flood_bytes_per_msg E.Boxed (Lazy.force dense96) );
      ( "alloc: send-path soa bytes/msg",
        flood_bytes_per_msg E.Packed (Lazy.force dense96) );
    ]
  in
  Report.subheading "send-path allocation (bytes per message, warmed engine)";
  Report.table ~columns:[ "gauge"; "bytes/msg" ]
    (List.map (fun (name, x) -> [ Report.Str name; Report.Float x ]) gauges);
  rows @ speedups @ gauges
