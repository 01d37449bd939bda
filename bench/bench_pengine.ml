(* Bench PX: partitioned engine + streaming builders.

   Two tables:
   - bit-identity: flood and spt-async on small graphs, sequential vs
     partitioned across K domains under exact and seeded-oracle delays
     (the lockstep path). The [fail] column counts any divergence in
     measures, arrivals, distances or tree parents — it must be zero;
     the CI job asserts it.
   - scale sweep: million-vertex-capable families built through the
     streaming CSR constructors (grid, connected G(n,p)), timing the
     build, the sequential run and the partitioned run, with the
     allocation of the build and the process peak RSS alongside — the
     memory story of ISSUE's "no tuple edge lists".

   Sweep sizes: 10^4 and 10^5 everywhere; 10^6 rows are appended when
   CSAP_PX_BIG=1 (local runs; CI keeps the short sweep). The domain
   count defaults to min(recommended, 4) but never below 2, and can be
   pinned with CSAP_BENCH_DOMAINS — on single-CPU containers the
   partitioned run still executes (correctness is scheduling-blind);
   only the wall-clock ratio loses meaning. *)

module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Tree = Csap_graph.Tree
module Delay = Csap_dsim.Delay
module F = Csap.Flood
module S = Csap.Spt_async

let domains =
  match Sys.getenv_opt "CSAP_BENCH_DOMAINS" with
  | Some s when int_of_string_opt s <> None && int_of_string s >= 1 ->
    int_of_string s
  | _ -> max 2 (min 4 (Domain.recommended_domain_count ()))

let big = Sys.getenv_opt "CSAP_PX_BIG" = Some "1"

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* Like [wall] but also reports the minor-heap traffic of the call:
   (minor words allocated, minor collections finished). Domain-local, so
   only the calling domain's work is counted. *)
let wall_gc f =
  (* Minor words via the dedicated external — quick_stat's field only
     advances at minor collections (OCaml 5.1). *)
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let g1 = Gc.quick_stat () in
  ( r,
    ms,
    Gc.minor_words () -. w0,
    g1.Gc.minor_collections - g0.Gc.minor_collections )

(* VmHWM from /proc/self/status, in MB; 0 when unavailable. Process-wide
   high-water mark, so only the big rows move it meaningfully. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

let same_tree n a b =
  let ok = ref true in
  for v = 0 to n - 1 do
    if Tree.parent a v <> Tree.parent b v then ok := false
  done;
  !ok

(* ---- bit-identity table ------------------------------------------------ *)

let identity_cases =
  let grid = ("grid5x7", fun () -> Gen.grid 5 7 ~w:3) in
  let rand =
    ( "rand60",
      fun () ->
        Gen.random_connected (Csap_graph.Rng.create 11) 60 ~extra_edges:90
          ~wmax:9 )
  in
  let delays = [ ("exact", Delay.Exact); ("seeded", Delay.seeded 17) ] in
  List.concat_map
    (fun (fname, build) ->
      List.concat_map
        (fun (dname, delay) ->
          List.map (fun k -> (fname, build, dname, delay, k)) [ 2; 4 ])
        delays)
    [ grid; rand ]

let identity_row (fname, build, dname, delay, k) =
  let g = build () in
  let n = G.n g in
  let fs = F.run ~delay g ~source:0 in
  let fp = F.run ~delay ~domains:k g ~source:0 in
  let flood_ok =
    fs.F.measures = fp.F.measures
    && fs.F.arrival = fp.F.arrival
    && same_tree n fs.F.tree fp.F.tree
  in
  let ss = S.run ~delay g ~source:0 in
  let sp = S.run ~delay ~domains:k g ~source:0 in
  let spt_ok =
    ss.S.measures = sp.S.measures
    && ss.S.dist = sp.S.dist
    && same_tree n ss.S.tree sp.S.tree
  in
  [
    Report.Str fname;
    Report.Str dname;
    Report.Int k;
    Report.Int fs.F.measures.Csap.Measures.messages;
    Report.Int ss.S.measures.Csap.Measures.messages;
    Report.Int ((if flood_ok then 0 else 1) + if spt_ok then 0 else 2);
  ]

(* ---- scale sweep ------------------------------------------------------- *)

type family = { fname : string; build : int -> G.t }

let families =
  [
    {
      fname = "grid";
      build =
        (fun n ->
          let side = max 2 (int_of_float (sqrt (float_of_int n))) in
          Gen.grid_stream side side ~w:4);
    };
    {
      fname = "gnp";
      build =
        (fun n ->
          Gen.gnp ~connected:true ~seed:5 n
            ~p:(8.0 /. float_of_int (max 2 n - 1))
            ~wmax:8);
    };
  ]

let sizes = [ 10_000; 100_000 ] @ if big then [ 1_000_000 ] else []

let sweep_row { fname; build } n () =
  let a0 = Gc.allocated_bytes () in
  let g, build_ms = wall (fun () -> build n) in
  let build_mb = (Gc.allocated_bytes () -. a0) /. 1048576.0 in
  let flood_seq, seq_f, seq_f_mw, seq_f_gc =
    wall_gc (fun () -> F.run g ~source:0)
  in
  let flood_par, par_f =
    wall (fun () -> F.run ~domains g ~source:0)
  in
  let spt_seq, seq_s, seq_s_mw, seq_s_gc =
    wall_gc (fun () -> S.run g ~source:0)
  in
  let spt_par, par_s =
    wall (fun () -> S.run ~domains g ~source:0)
  in
  let ident =
    if
      flood_seq.F.measures = flood_par.F.measures
      && flood_seq.F.arrival = flood_par.F.arrival
      && spt_seq.S.measures = spt_par.S.measures
      && spt_seq.S.dist = spt_par.S.dist
    then 0
    else 1
  in
  [
    [
      Report.Str fname;
      Report.Int (G.n g);
      Report.Int (G.m g);
      Report.Float build_ms;
      Report.Float build_mb;
      Report.Float seq_f;
      Report.Float par_f;
      Report.Float (Report.ratio seq_f par_f);
      Report.Float seq_s;
      Report.Float par_s;
      Report.Float (Report.ratio seq_s par_s);
      Report.Int domains;
      Report.Int ident;
      Report.Float (peak_rss_mb ());
      (* Minor-heap traffic of the two sequential runs: allocated minor
         words (millions) and minor collections — the before/after gauge
         for the allocation-free delivery path. *)
      Report.Float (seq_f_mw /. 1e6);
      Report.Int seq_f_gc;
      Report.Float (seq_s_mw /. 1e6);
      Report.Int seq_s_gc;
    ];
  ]

(* One small row comparing the tuple-list and streaming builders on the
   same instance: the allocation column is the point. *)
let builder_row () =
  let side = 100 in
  let a0 = Gc.allocated_bytes () in
  let g_t, tuple_ms = wall (fun () -> Gen.grid side side ~w:4) in
  let tuple_mb = (Gc.allocated_bytes () -. a0) /. 1048576.0 in
  let a1 = Gc.allocated_bytes () in
  let g_s, stream_ms = wall (fun () -> Gen.grid_stream side side ~w:4) in
  let stream_mb = (Gc.allocated_bytes () -. a1) /. 1048576.0 in
  let identical =
    G.n g_t = G.n g_s
    && G.m g_t = G.m g_s
    && Array.init (G.m g_t) (fun i -> G.edge g_t i)
       = Array.init (G.m g_s) (fun i -> G.edge g_s i)
  in
  [
    [
      Report.Str "grid100x100";
      Report.Float tuple_ms;
      Report.Float tuple_mb;
      Report.Float stream_ms;
      Report.Float stream_mb;
      Report.Float (Report.ratio tuple_mb stream_mb);
      Report.Int (if identical then 0 else 1);
    ];
  ]

let px () =
  let sweep_jobs =
    List.concat_map
      (fun fam ->
        List.map
          (fun n ->
            Report.job
              (Printf.sprintf "%s-n%d" fam.fname n)
              (sweep_row fam n))
          sizes)
      families
  in
  {
    Report.id = "PX";
    title = "partitioned engine + streaming builders (bit-identity & scale)";
    jobs =
      Report.job "identity" (fun () -> List.map identity_row identity_cases)
      :: Report.job "builders" builder_row
      :: sweep_jobs;
    render =
      (fun results ->
        Report.subheading
          (Printf.sprintf
             "bit-identity: sequential vs %d/%d-domain runs (fail must be 0; \
              1=flood, 2=spt-async, 3=both)"
             2 4);
        Report.table
          ~columns:[ "family"; "delay"; "k"; "flood_msgs"; "spt_msgs"; "fail" ]
          results.(0);
        Report.subheading
          "builder comparison: tuple list vs streaming CSR, same instance";
        Report.table
          ~columns:
            [
              "instance"; "tuple_ms"; "tuple_MB"; "stream_ms"; "stream_MB";
              "alloc_ratio"; "fail";
            ]
          results.(1);
        Report.subheading
          (Printf.sprintf
             "scale sweep (%d domains; ratio = seq_ms / par_ms; ident must \
              be 0)"
             domains);
        Report.table
          ~columns:
            [
              "family"; "n"; "m"; "build_ms"; "build_MB"; "flood_seq_ms";
              "flood_par_ms"; "flood_x"; "spt_seq_ms"; "spt_par_ms"; "spt_x";
              "domains"; "ident"; "peak_rss_MB"; "flood_mwords_M";
              "flood_min_gcs"; "spt_mwords_M"; "spt_min_gcs";
            ]
          (List.concat
             (Array.to_list (Array.sub results 2 (Array.length results - 2)))));
  }
