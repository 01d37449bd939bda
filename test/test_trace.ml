module T = Csap_dsim.Trace
module E = Csap_dsim.Engine
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

let ev ?(kind = T.Send) ?(time = 0.0) ?(seq = 0) ?(edge = 0) ?(dir = 0)
    ?(nth = 0) ?(src = 0) ?(dst = 1) ?(delay = 1.0) () =
  { T.kind; time; seq; edge; dir; nth; src; dst; delay }

(* The historical Printf writer: [to_jsonl] must reproduce it byte for
   byte. *)
let oracle_line ev =
  Printf.sprintf
    "{\"kind\":\"%s\",\"time\":%.17g,\"seq\":%d,\"edge\":%d,\"dir\":%d,\"nth\":%d,\"src\":%d,\"dst\":%d,\"delay\":%.17g}"
    (match ev.T.kind with
    | T.Send -> "send"
    | T.Deliver -> "deliver"
    | T.Local -> "local"
    | T.Dropped -> "dropped"
    | T.Dup -> "dup"
    | T.Decision -> "decision")
    ev.T.time ev.T.seq ev.T.edge ev.T.dir ev.T.nth ev.T.src ev.T.dst
    ev.T.delay

let of_list evs =
  let t = T.create () in
  List.iter (T.add t) evs;
  t

let test_jsonl_roundtrip () =
  let t = T.create () in
  T.add t (ev ~time:0.1 ~seq:3 ~delay:0.30000000000000004 ());
  T.add t
    (ev ~kind:T.Deliver ~time:1.5e-7 ~seq:4 ~edge:7 ~dir:1 ~nth:2 ~src:9
       ~dst:3 ~delay:0.0 ());
  T.add t
    (ev ~kind:T.Local ~time:12.0 ~seq:5 ~edge:(-1) ~dir:(-1) ~nth:(-1)
       ~src:(-1) ~dst:(-1) ~delay:0.0 ());
  let t' = T.of_jsonl (T.to_jsonl t) in
  Alcotest.(check bool) "round-trips exactly" true (T.equal t t');
  Alcotest.check_raises "malformed line rejected"
    (Invalid_argument "Trace.of_jsonl: line 1: unparsable line \"{oops}\"")
    (fun () -> ignore (T.of_jsonl "{oops}"));
  (* The reader takes only what the writer emits: no trailing bytes, and
     JSON numbers, not OCaml's ('_' separators, '+', hex, nan/inf). *)
  let line ?(seq = "1") ?(delay = "0.5") ?(sep = ",") () =
    Printf.sprintf
      "{\"kind\":\"send\",\"time\":0,\"seq\":%s,\"edge\":0,\"dir\":0,\"nth\":0,\"src\":0%s\"dst\":1,\"delay\":%s}"
      seq sep delay
  in
  Alcotest.(check bool) "well-formed line accepted" true
    (T.length (T.of_jsonl (line ())) = 1);
  List.iter
    (fun bad ->
      Alcotest.check_raises bad
        (Invalid_argument
           (Printf.sprintf "Trace.of_jsonl: line 1: unparsable line %S" bad))
        (fun () -> ignore (T.of_jsonl bad)))
    [
      line () ^ "garbage";
      line ~delay:"1_000" ();
      line ~delay:"+0.5" ();
      line ~delay:"0x1p-1" ();
      line ~delay:"nan" ();
      line ~delay:"1e999" ();
      line ~delay:".5" ();
      line ~seq:"01" ();
      line ~seq:"1.0" ();
      line ~seq:"99999999999999999999" ();
      line ~sep:", " ();
    ]

let test_jsonl_error_context () =
  (* A corrupted line in the middle of an otherwise valid stream is
     reported by its 1-based line number; checkpoint resume depends on
     being able to point at the truncation point of a half-written
     file. *)
  let t = T.create () in
  for i = 0 to 3 do
    T.add t (ev ~time:(float_of_int i) ~seq:i ())
  done;
  let good = T.to_jsonl t in
  let lines = String.split_on_char '\n' good in
  let truncated =
    (* Keep two good lines, then a half-written third (a crash mid
       append), then a trailing good one. *)
    String.concat "\n"
      [
        List.nth lines 0; List.nth lines 1;
        String.sub (List.nth lines 2) 0 17; List.nth lines 3;
      ]
  in
  (match T.of_jsonl truncated with
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "line number in %S" msg)
      true
      (let sub = "line 3:" in
       let rec find i =
         i + String.length sub <= String.length msg
         && (String.sub msg i (String.length sub) = sub || find (i + 1))
       in
       find 0)
  | _ -> Alcotest.fail "truncated line must be rejected");
  (* Unknown kind keeps its specific message, now with line context. *)
  (match
     T.of_jsonl
       ((List.nth lines 0 ^ "\n")
       ^ "{\"kind\":\"warp\",\"time\":0,\"seq\":9,\"edge\":0,\"dir\":0,\"nth\":0,\"src\":0,\"dst\":1,\"delay\":1}")
   with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "unknown kind named with line"
      "Trace.of_jsonl: line 2: unknown kind \"warp\"" msg
  | _ -> Alcotest.fail "unknown kind must be rejected")

let test_jsonl_file_error_names_file () =
  let t = T.create () in
  T.add t (ev ());
  let path = Filename.temp_file "csap-trace-bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (T.to_jsonl t);
      output_string oc "{\"kind\":\"send\",\"ti";
      close_out oc;
      match T.load_jsonl path with
      | exception Invalid_argument msg ->
        let expect = Printf.sprintf "Trace.of_jsonl: %s: line 2:" path in
        Alcotest.(check bool)
          (Printf.sprintf "file and line in %S" msg)
          true
          (String.length msg >= String.length expect
          && String.sub msg 0 (String.length expect) = expect)
      | _ -> Alcotest.fail "truncated file must be rejected")

let test_jsonl_file_roundtrip () =
  let t = T.create () in
  for i = 0 to 9 do
    T.add t (ev ~time:(float_of_int i /. 3.0) ~seq:i ())
  done;
  let path = Filename.temp_file "csap-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.save_jsonl t path;
      Alcotest.(check bool) "file round-trips" true
        (T.equal t (T.load_jsonl path)))

(* A dump longer than one 64 KB chunk and an empty trace both come back
   equal through the file. *)
let test_save_jsonl_streams () =
  let through_file t =
    let path = Filename.temp_file "csap-trace-stream" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        T.save_jsonl t path;
        ((Unix.stat path).Unix.st_size, T.load_jsonl path))
  in
  let big = T.create () in
  for i = 0 to 59_999 do
    T.add big
      (ev ~time:(float_of_int (i / 3) /. 7.0) ~seq:i ~edge:(i mod 97)
         ~nth:(i / 97) ~delay:(float_of_int (i mod 11) *. 0.1) ())
  done;
  let size, loaded = through_file big in
  Alcotest.(check bool) "more than one chunk" true (size > 2 * 65536);
  Alcotest.(check int) "byte count" (String.length (T.to_jsonl big)) size;
  Alcotest.(check bool) "long dump round-trips" true (T.equal big loaded);
  let size, loaded = through_file (T.create ()) in
  Alcotest.(check int) "empty trace, empty file" 0 size;
  Alcotest.(check int) "empty file, empty trace" 0 (T.length loaded)

(* Dumps committed from the Printf writer (4x4 grid, flood, one greedy
   adversary run and one seeded:1 run): the file format is byte-stable. *)
let test_golden_dumps () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  (* [dune runtest] runs in the test directory; [dune exec] from the
     repository root. *)
  let dir = if Sys.file_exists "golden" then "golden" else "test/golden" in
  List.iter
    (fun (golden, adversary, delay) ->
      let prefix = Filename.temp_file "csap-trace-golden" "" in
      let dump = prefix ^ "--flood--0.jsonl" in
      let cell =
        Csap_farm.Cell.make ~family:"grid" ~n:16 ?adversary ?delay
          ~trace:prefix "flood"
      in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove [ prefix; dump ])
        (fun () ->
          (match (Csap_farm.Cell.run cell).result with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Csap_farm.Cell.error_message e));
          Alcotest.(check string) golden
            (read (Filename.concat dir golden))
            (read dump)))
    [
      ("trace-grid16-flood-greedy.jsonl", Some "greedy", None);
      ("trace-grid16-flood-seeded1.jsonl", None, Some "seeded:1");
    ]

let test_collector_scopes () =
  (* Engines created inside a collector scope register traces, in creation
     order; outside, none. *)
  let g = Gen.path 3 ~w:2 in
  let outside = E.create g in
  Alcotest.(check bool) "no ambient trace" true (E.trace outside = None);
  let (e1, e2), traces =
    T.with_collector (fun () -> (E.create g, E.create g))
  in
  Alcotest.(check int) "one trace per engine" 2 (List.length traces);
  Alcotest.(check bool) "attached in order" true
    (E.trace e1 = Some (List.nth traces 0)
    && E.trace e2 = Some (List.nth traces 1));
  let (), nested =
    T.with_collector (fun () ->
        let (), inner = T.with_collector (fun () -> ignore (E.create g)) in
        Alcotest.(check int) "inner scope sees its engine" 1
          (List.length inner))
  in
  Alcotest.(check int) "outer scope does not see inner's" 0
    (List.length nested)

(* Record a run, rebuild the schedule with [recorded], re-run: the replay
   must reproduce the execution event for event and metric for metric. *)
let record_and_replay g ~source ~delay =
  let r, traces =
    T.with_collector (fun () -> Csap.Flood.run ~delay g ~source)
  in
  let tr = match traces with [ tr ] -> tr | _ -> Alcotest.fail "one engine" in
  let r', traces' =
    T.with_collector (fun () ->
        Csap.Flood.run ~delay:(T.recorded tr) g ~source)
  in
  let tr' = match traces' with [ t ] -> t | _ -> Alcotest.fail "one engine" in
  (r, tr, r', tr')

let test_replay_reproduces () =
  let g = Gen.grid 4 4 ~w:7 in
  let rng = Csap_graph.Rng.create 42 in
  let r, tr, r', tr' =
    record_and_replay g ~source:0 ~delay:(Csap_dsim.Delay.Uniform rng)
  in
  Alcotest.(check bool) "identical event order" true (T.equal tr tr');
  Alcotest.(check bool) "identical measures" true
    (r.Csap.Flood.measures = r'.Csap.Flood.measures);
  Alcotest.(check bool) "identical arrivals" true
    (r.Csap.Flood.arrival = r'.Csap.Flood.arrival)

let test_replay_through_jsonl () =
  (* The JSONL round trip preserves enough precision that replay-from-file
     is still exact. *)
  let g = Gen.grid 3 5 ~w:9 in
  let rng = Csap_graph.Rng.create 7 in
  let delay = Csap_dsim.Delay.Uniform rng in
  let r, traces =
    T.with_collector (fun () -> Csap.Flood.run ~delay g ~source:2)
  in
  let tr = List.hd traces in
  let tr = T.of_jsonl (T.to_jsonl tr) in
  let r', traces' =
    T.with_collector (fun () ->
        Csap.Flood.run ~delay:(T.recorded tr) g ~source:2)
  in
  Alcotest.(check bool) "event order survives JSONL" true
    (T.equal tr (List.hd traces'));
  Alcotest.(check bool) "measures survive JSONL" true
    (r.Csap.Flood.measures = r'.Csap.Flood.measures)

let test_diverged_replay_detected () =
  (* Replaying a recording on a different graph asks for sends the
     recording never made. *)
  let g = Gen.path 4 ~w:3 in
  let _, traces =
    T.with_collector (fun () -> Csap.Flood.run g ~source:0)
  in
  let oracle = T.recorded (List.hd traces) in
  let bigger = Gen.grid 3 3 ~w:3 in
  match Csap.Flood.run ~delay:oracle bigger ~source:0 with
  | _ -> Alcotest.fail "diverged replay must raise"
  | exception Invalid_argument _ -> ()

let prop_replay =
  QCheck.Test.make ~count:30 ~name:"record/replay reproduces any flood"
    (Gen_qcheck.graph_and_vertex ~max_n:16 ())
    (fun (g, source) ->
      let r, tr, r', tr' =
        record_and_replay g ~source
          ~delay:(Csap_dsim.Delay.seeded (G.n g + source))
      in
      T.equal tr tr'
      && r.Csap.Flood.measures = r'.Csap.Flood.measures
      && r.Csap.Flood.arrival = r'.Csap.Flood.arrival)

let prop_jsonl_roundtrip =
  QCheck.Test.make ~count:100 ~name:"JSONL round-trips random events"
    QCheck.(
      list
        (tup4 (int_range 0 4)
           (pair (float_bound_inclusive 100.0) small_nat)
           (pair small_nat small_nat)
           (float_bound_inclusive 50.0)))
    (fun entries ->
      let t = T.create () in
      List.iter
        (fun (k, (time, seq), (edge, nth), delay) ->
          let kind =
            match k with
            | 0 -> T.Send
            | 1 -> T.Deliver
            | 2 -> T.Local
            | 3 -> T.Dropped
            | _ -> T.Dup
          in
          T.add t (ev ~kind ~time ~seq ~edge ~nth ~delay ()))
        entries;
      T.equal t (T.of_jsonl (T.to_jsonl t)))

(* Every kind, with the floats where %.17g output changes shape (signed
   zeros, the integral cut-off at 1e15, the exponent switch at 1e17,
   integers past 2^53, subnormals, extremes) and the extreme ints. The
   small pool makes events share floats, as the memo expects, with
   integral values and both zeros in between. *)
let prop_jsonl_matches_printf =
  let specials =
    let e15 = 1e15 and e17 = 1e17 and p53 = Float.pow 2.0 53.0 in
    let base =
      [ 0.0; -0.0; 1.0; 0.5; 0.1; 1e-300; Float.max_float; Float.min_float;
        Float.pred Float.min_float; Int64.float_of_bits 1L;
        Float.pred e15; e15; Float.succ e15; Float.pred e17; e17;
        Float.succ e17; p53 +. 1.0; Float.succ p53; 1e15 -. 0.5; 123456.75 ]
    in
    base @ List.map Float.neg base
  in
  let float_g =
    QCheck.Gen.(
      oneof
        [
          oneofl specials;
          oneofl [ 0.1; 1e-7; 3.0; 0.0; -0.0 ];
          map
            (fun b ->
              let x = Int64.float_of_bits b in
              if Float.is_finite x then x else 0.25)
            ui64;
          float_bound_inclusive 1e6;
          map float_of_int int;
        ])
  in
  let int_g =
    QCheck.Gen.(oneof [ oneofl [ min_int; max_int; -1; 0 ]; int; small_signed_int ])
  in
  let event =
    QCheck.Gen.(
      map
        (fun ((kind, time, delay), (seq, edge, dir), (nth, src, dst)) ->
          { T.kind; time; seq; edge; dir; nth; src; dst; delay })
        (triple
           (triple
              (oneofl [ T.Send; T.Deliver; T.Local; T.Dropped; T.Dup; T.Decision ])
              float_g float_g)
           (triple int_g int_g int_g) (triple int_g int_g int_g)))
  in
  QCheck.Test.make ~count:300 ~name:"to_jsonl = Printf oracle, line by line"
    (QCheck.make
       ~print:(fun evs -> String.concat "\n" (List.map oracle_line evs))
       QCheck.Gen.(list_size (int_range 0 40) event))
    (fun evs ->
      String.split_on_char '\n' (T.to_jsonl (of_list evs))
      = List.map oracle_line evs @ [ "" ])

let test_faulty_trace_records_fault_kinds () =
  (* A run under an aggressive fault plan leaves Dropped and Dup records in
     its trace, and the whole trace survives the JSONL round trip. *)
  let g = Gen.grid 3 3 ~w:4 in
  let faults = Csap_dsim.Fault.seeded ~loss:0.4 ~dup:0.4 99 in
  let _, traces =
    T.with_collector (fun () ->
        Csap.Flood.run ~faults ~reliable:true g ~source:0)
  in
  let tr = List.hd traces in
  let count k =
    Array.fold_left
      (fun acc e -> if e.T.kind = k then acc + 1 else acc)
      0 (T.events tr)
  in
  Alcotest.(check bool) "some drops recorded" true (count T.Dropped > 0);
  Alcotest.(check bool) "some dups recorded" true (count T.Dup > 0);
  Alcotest.(check bool) "faulty trace round-trips" true
    (T.equal tr (T.of_jsonl (T.to_jsonl tr)))

let suite =
  [
    Alcotest.test_case "JSONL round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "JSONL file round-trip" `Quick
      test_jsonl_file_roundtrip;
    Alcotest.test_case "JSONL parse errors carry line numbers" `Quick
      test_jsonl_error_context;
    Alcotest.test_case "JSONL file parse errors name the file" `Quick
      test_jsonl_file_error_names_file;
    Alcotest.test_case "save_jsonl streams long and empty traces"
      `Quick test_save_jsonl_streams;
    Alcotest.test_case "dumps match the committed golden files" `Quick
      test_golden_dumps;
    QCheck_alcotest.to_alcotest prop_jsonl_matches_printf;
    Alcotest.test_case "collector scopes are nested and isolated" `Quick
      test_collector_scopes;
    Alcotest.test_case "replay reproduces the recorded run" `Quick
      test_replay_reproduces;
    Alcotest.test_case "replay survives the JSONL round-trip" `Quick
      test_replay_through_jsonl;
    Alcotest.test_case "diverged replay detected" `Quick
      test_diverged_replay_detected;
    QCheck_alcotest.to_alcotest prop_replay;
    QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
    Alcotest.test_case "faulty run records Dropped/Dup" `Quick
      test_faulty_trace_records_fault_kinds;
  ]
