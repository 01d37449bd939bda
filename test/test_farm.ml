(* The bench farm: JSON codec, canonical cells, checkpoint manifests,
   sweep execution, cancellation, and the crash-resume round trip — a
   sweep killed mid-flight (after at least one cell completed) resumed
   from its manifest must skip the completed cells and produce results
   identical to an uninterrupted run. *)

module Jsonx = Csap_farm.Jsonx
module Cell = Csap_farm.Cell
module Manifest = Csap_farm.Manifest
module Farm = Csap_farm.Farm

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let tmp_dir =
  let counter = ref 0 in
  fun name ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "csap-farm-%s-%d-%d" name (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then
      Array.iter
        (fun f -> Sys.remove (Filename.concat d f))
        (Sys.readdir d);
    d

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)

let test_jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [ ("s", Jsonx.Str "a\"b\\c\nd");
        ("i", Jsonx.Int (-42));
        ("f", Jsonx.Float 0.1);
        ("t", Jsonx.Bool true);
        ("nil", Jsonx.Null);
        ("a", Jsonx.Arr [ Jsonx.Int 1; Jsonx.Str "x"; Jsonx.Obj [] ]) ]
  in
  let s = Jsonx.to_string v in
  (match Jsonx.parse s with
  | Ok v' ->
    Alcotest.(check string) "print-parse-print is stable" s
      (Jsonx.to_string v')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (* Whitespace, nesting, unicode escapes. *)
  (match Jsonx.parse {|  { "k" : [ 1 , 2.5 , "A\n" ] , "e" : {} }  |} with
  | Ok j ->
    Alcotest.(check (option string)) "escape decode" None (Jsonx.to_str None);
    (match Jsonx.member "k" j with
    | Some (Jsonx.Arr [ Jsonx.Int 1; Jsonx.Float f; Jsonx.Str u ]) ->
      Alcotest.(check (float 1e-9)) "float" 2.5 f;
      Alcotest.(check string) "unicode + escape" "A\n" u
    | _ -> Alcotest.fail "unexpected shape")
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Errors are positioned, and trailing garbage is rejected. *)
  (match Jsonx.parse "{\"a\":1" with
  | Error e ->
    Alcotest.(check bool) "names a byte offset" true (contains ~needle:"byte" e)
  | Ok _ -> Alcotest.fail "accepted truncated object");
  match Jsonx.parse "1 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage"

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)

let test_cell_canonical () =
  let c =
    Cell.make ~family:"grid" ~n:25 ~w:4 ~seed:7 ~delay:"seeded:3" ~loss:0.1
      ~pulses:5 ~check:true "flood"
  in
  let s = Cell.to_json c in
  (match Cell.of_json s with
  | Ok c' ->
    Alcotest.(check bool) "round-trips structurally" true (c = c');
    Alcotest.(check string) "digest stable under round trip" (Cell.digest c)
      (Cell.digest c')
  | Error e -> Alcotest.failf "of_json failed: %s" e);
  (* Distinct cfgs get distinct digests. *)
  Alcotest.(check bool) "digest discriminates" false
    (Cell.digest c = Cell.digest { c with Cell.seed = 8 });
  (* The new adversary/trace knobs are omitted when unset, so every
     pre-existing cell keeps its digest (manifests resume across the
     upgrade); setting them round-trips and changes the digest. *)
  Alcotest.(check bool) "unset knobs leave the canonical JSON alone" false
    (contains ~needle:"adversary" s || contains ~needle:"trace" s);
  let ca = { c with Cell.adversary = Some "greedy"; trace = Some "/tmp/t" } in
  (match Cell.of_json (Cell.to_json ca) with
  | Ok ca' ->
    Alcotest.(check bool) "adversary/trace round-trip" true (ca = ca');
    Alcotest.(check bool) "adversary/trace feed the digest" false
      (Cell.digest ca = Cell.digest c)
  | Error e -> Alcotest.failf "of_json failed: %s" e);
  (* Hand-written minimal object: defaults fill in. *)
  (match Cell.of_json {|{"protocol":"flood","family":"path","n":4}|} with
  | Ok c ->
    Alcotest.(check int) "default w" 8 c.Cell.w;
    Alcotest.(check bool) "default check" true c.Cell.check
  | Error e -> Alcotest.failf "minimal object rejected: %s" e);
  (match Cell.of_json {|{"family":"path"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted cell without protocol");
  (* A mistyped or unknown field is an error naming it, never a silent
     default. *)
  List.iter
    (fun (input, expected) ->
      match Cell.of_json input with
      | Error e -> Alcotest.(check string) input expected e
      | Ok _ -> Alcotest.failf "accepted %s" input)
    [
      ( {|{"protocol":"flood","n":"64"}|},
        {|cell: field "n": expected an int|} );
      ( {|{"protocol":"flood","reliable":1}|},
        {|cell: field "reliable": expected a bool|} );
      ( {|{"protocol":"flood","check":"no"}|},
        {|cell: field "check": expected a bool|} );
      ( {|{"protocol":"flood","delay":5}|},
        {|cell: field "delay": expected a string|} );
      ( {|{"protocol":"flood","loss":"0.1"}|},
        {|cell: field "loss": expected a number|} );
      ( {|{"protocol":7}|}, {|cell: field "protocol": expected a string|} );
      ({|{"protocol":"flood","nn":64}|}, {|cell: unknown field "nn"|});
    ];
  (* An integral number is still a valid float field. *)
  match Cell.of_json {|{"protocol":"flood","loss":0}|} with
  | Ok c -> Alcotest.(check (float 0.0)) "int loss" 0.0 c.Cell.loss
  | Error e -> Alcotest.failf "integral loss rejected: %s" e

let test_cell_error_classification () =
  let code c = Cell.error_exit_code c in
  Alcotest.(check int) "invariant -> 1" 1 (code (Cell.Invariant_failed "x"));
  Alcotest.(check int) "unknown -> 2" 2 (code (Cell.Unknown_protocol "x"));
  Alcotest.(check int) "bad spec -> 3" 3 (code (Cell.Bad_spec "x"));
  Alcotest.(check int) "crash -> 4" 4 (code (Cell.Execution_error "x"));
  let classify cell =
    match (Cell.run cell).Cell.result with
    | Ok _ -> "ok"
    | Error e -> string_of_int (Cell.error_exit_code e)
  in
  Alcotest.(check string) "unknown protocol" "2"
    (classify (Cell.make "nosuch"));
  Alcotest.(check string) "bad delay spec" "3"
    (classify (Cell.make ~delay:"bogus" "flood"));
  Alcotest.(check string) "bad adversary spec" "3"
    (classify (Cell.make ~adversary:"bogus" "flood"));
  Alcotest.(check string) "adversary/delay conflict" "3"
    (classify (Cell.make ~adversary:"greedy" ~delay:"exact" "flood"));
  (match
     (Cell.run (Cell.make ~adversary:"greedy" ~delay:"exact" "flood"))
       .Cell.result
   with
  | Error (Cell.Bad_spec msg) ->
    Alcotest.(check string) "adversary/delay conflict message"
      "flood: adversary: conflicts with an explicit delay model" msg
  | _ -> Alcotest.fail "adversary/delay conflict must be a bad spec");
  (* [prepare] is the check [submit] spools through: it rejects the same
     conflict, here under a seeded delay, before any run — and every
     other cell that could only fail. *)
  (match
     Cell.prepare (Cell.make ~delay:"seeded:1" ~adversary:"greedy" "flood")
   with
  | Error (Cell.Bad_spec msg) ->
    Alcotest.(check string) "seeded delay + adversary rejected"
      "flood: adversary: conflicts with an explicit delay model" msg
  | _ -> Alcotest.fail "prepare accepted a delay with an adversary");
  let prepared cell =
    match Cell.prepare cell with
    | Ok _ -> "ok"
    | Error e -> string_of_int (Cell.error_exit_code e)
  in
  Alcotest.(check string) "adversary alone resolves" "ok"
    (prepared (Cell.make ~adversary:"greedy" "flood"));
  Alcotest.(check string) "prepare: unknown protocol" "2"
    (prepared (Cell.make "nosuch"));
  Alcotest.(check string) "prepare: bad family" "3"
    (prepared (Cell.make ~family:"nope" "flood"));
  Alcotest.(check string) "prepare: root out of range" "3"
    (prepared (Cell.make ~n:9 ~root:999 "flood"));
  Alcotest.(check string) "prepare: domains exclude the shim" "3"
    (prepared (Cell.make ~domains:2 ~reliable:true "spt-async"));
  Alcotest.(check string) "bad family" "3"
    (classify (Cell.make ~family:"nope" "flood"));
  Alcotest.(check string) "bad loss" "3"
    (classify (Cell.make ~loss:1.5 "flood"));
  Alcotest.(check string) "root out of range" "3"
    (classify (Cell.make ~root:999 "flood"));
  Alcotest.(check string) "clean run" "ok"
    (classify (Cell.make ~family:"grid" ~n:9 "flood"))

(* ------------------------------------------------------------------ *)
(* Manifests                                                           *)

let test_manifest_roundtrip () =
  let dir = tmp_dir "manifest" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "MANIFEST.jsonl" in
  let m = Manifest.create path in
  let c0 = Cell.make ~family:"grid" ~n:9 "flood" in
  let c1 = Cell.make ~family:"path" ~n:4 "mst-ghs" in
  let e0 = Manifest.add m c0 in
  let e1 = Manifest.add m c1 in
  Manifest.set_state m e0 Manifest.Running;
  Manifest.set_state m e0
    ~result:
      {
        Manifest.comm = 12;
        time = 3.5;
        messages = 6;
        retransmissions = 0;
        restarts = 0;
        wall_ms = 1.25;
      }
    Manifest.Done;
  Manifest.set_state m e1 ~error:"boom" Manifest.Failed;
  Manifest.close m;
  let m' = Manifest.load path in
  Alcotest.(check bool) "not torn" false (Manifest.torn m');
  let p, r, d, f, c = Manifest.counts m' in
  Alcotest.(check (list int)) "counts" [ 0; 0; 1; 1; 0 ] [ p; r; d; f; c ];
  (match Manifest.entries m' with
  | [ a; b ] ->
    Alcotest.(check string) "digest preserved" (Cell.digest c0)
      a.Manifest.digest;
    Alcotest.(check bool) "cell preserved" true (a.Manifest.cell = c0);
    (match a.Manifest.result with
    | Some r ->
      Alcotest.(check int) "comm" 12 r.Manifest.comm;
      Alcotest.(check (float 1e-9)) "wall" 1.25 r.Manifest.wall_ms
    | None -> Alcotest.fail "done entry lost its result");
    Alcotest.(check (option string)) "error preserved" (Some "boom")
      b.Manifest.error
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  Manifest.close m'

let test_manifest_torn_tail_and_corruption () =
  let dir = tmp_dir "torn" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "MANIFEST.jsonl" in
  let m = Manifest.create path in
  let e = Manifest.add m (Cell.make ~family:"grid" ~n:9 "flood") in
  Manifest.set_state m e Manifest.Running;
  Manifest.close m;
  (* A crash mid-append leaves a truncated final line: tolerated. *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc {|{"kind":"state","id":0,"st|};
  close_out oc;
  let m' = Manifest.load ~readonly:true path in
  Alcotest.(check bool) "torn tail detected" true (Manifest.torn m');
  Alcotest.(check bool) "state from the last whole line" true
    ((List.hd (Manifest.entries m')).Manifest.state = Manifest.Running);
  (* The same garbage mid-file is corruption, named by file and line. *)
  let body =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let oc = open_out_bin path in
  output_string oc body;
  output_string oc "\n";
  output_string oc (Jsonx.to_string (Jsonx.Obj [ ("kind", Jsonx.Str "state");
    ("id", Jsonx.Int 0); ("state", Jsonx.Str "done") ]));
  output_string oc "\n";
  close_out oc;
  match Manifest.load ~readonly:true path with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the file" true (contains ~needle:path msg);
    Alcotest.(check bool) "names the line" true
      (contains ~needle:": line 4:" msg)
  | _ -> Alcotest.fail "interior corruption was not rejected"

(* Regression: a *writable* load after a torn tail must truncate the
   partial line before appending. Without that, the next append is
   glued onto the torn bytes; the glued line is then itself the torn
   tail, so the appended transition silently vanishes on the next
   load — and anything appended after it becomes interior corruption. *)
let test_manifest_writable_load_truncates_torn () =
  let dir = tmp_dir "torn-trunc" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "MANIFEST.jsonl" in
  let m = Manifest.create path in
  let e = Manifest.add m (Cell.make ~family:"grid" ~n:9 "flood") in
  Manifest.set_state m e Manifest.Running;
  Manifest.close m;
  let read_file () =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc {|{"kind":"state","id":0,"st|};
  close_out oc;
  let torn_body = read_file () in
  (* Readonly loads must not rewrite the file under a live server. *)
  Manifest.close (Manifest.load ~readonly:true path);
  Alcotest.(check string) "readonly load leaves the file untouched"
    torn_body (read_file ());
  (* A writable load drops the partial line, then appends cleanly. *)
  let m' = Manifest.load path in
  Alcotest.(check bool) "torn tail reported" true (Manifest.torn m');
  let e' = List.hd (Manifest.entries m') in
  Manifest.set_state m' e'
    ~result:
      {
        Manifest.comm = 12;
        time = 3.5;
        messages = 6;
        retransmissions = 0;
        restarts = 0;
        wall_ms = 1.0;
      }
    Manifest.Done;
  ignore (Manifest.add m' (Cell.make ~family:"path" ~n:4 "dfs-token"));
  Manifest.close m';
  (* The reload sees every post-crash append; nothing was glued onto
     the torn bytes or lost. *)
  let m'' = Manifest.load ~readonly:true path in
  Alcotest.(check bool) "clean after recovery" false (Manifest.torn m'');
  (match Manifest.entries m'' with
  | [ a; _ ] ->
    Alcotest.(check bool) "transition survived" true
      (a.Manifest.state = Manifest.Done);
    Alcotest.(check bool) "result survived" true (a.Manifest.result <> None)
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  Manifest.close m''

(* Torn-manifest reproductions must live under the farm's own directory
   (tmp_dir here), never as debris in the working directory — a previous
   repro left a stray [_torn_repro/] at the repo root. *)
let test_torn_repro_confined_to_farm_dir () =
  let cwd = Sys.getcwd () in
  let before = Array.to_list (Sys.readdir cwd) in
  let dir = tmp_dir "torn-confined" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "MANIFEST.jsonl" in
  let m = Manifest.create path in
  ignore (Manifest.add m (Cell.make ~family:"grid" ~n:9 "flood"));
  Manifest.close m;
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc {|{"kind":"cell","id":1,"dig|};
  close_out oc;
  let m' = Manifest.load path in
  Alcotest.(check bool) "repro reproduces the torn tail" true
    (Manifest.torn m');
  Manifest.close m';
  Alcotest.(check bool) "manifest lives under the farm dir" true
    (String.length path > String.length dir
    && String.sub path 0 (String.length dir) = dir);
  Alcotest.(check (list string))
    "no artifacts leaked into the working directory" before
    (Array.to_list (Sys.readdir cwd))

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)

let sweep_cells =
  [
    Cell.make ~family:"grid" ~n:16 ~delay:"exact" "flood";
    Cell.make ~family:"grid" ~n:16 ~delay:"seeded:3" "flood";
    Cell.make ~family:"complete" ~n:8 ~w:5 "mst-ghs";
  ]

let results_of_manifest path =
  List.map
    (fun (e : Manifest.entry) ->
      match e.Manifest.result with
      | Some r -> (e.Manifest.digest, r.Manifest.comm, r.Manifest.messages)
      | None -> (e.Manifest.digest, -1, -1))
    (Manifest.entries (Manifest.load ~readonly:true path))

let test_sweep_runs_and_resume_skips () =
  let dir = tmp_dir "sweep" in
  let cfg = Farm.config ~workers:2 ~dir () in
  let s = Farm.sweep cfg sweep_cells in
  Alcotest.(check int) "all completed" 3 s.Farm.completed;
  Alcotest.(check int) "none failed" 0 s.Farm.failed;
  Alcotest.(check int) "none skipped" 0 s.Farm.skipped;
  (* Resuming a finished sweep executes nothing. *)
  let s' = Farm.sweep ~resume:true cfg sweep_cells in
  Alcotest.(check int) "resume skips everything" 3 s'.Farm.skipped;
  Alcotest.(check int) "resume completes nothing" 0 s'.Farm.completed;
  (* A fresh sweep refuses to clobber the checkpoint. *)
  (match Farm.sweep cfg sweep_cells with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "clobbered an existing manifest");
  (* A mismatched cell list is rejected on resume. *)
  match Farm.sweep ~resume:true cfg (List.tl sweep_cells) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "resumed with a mismatched cell list"

(* Satellite of the adversary layer: a farm cell carrying both an
   adaptive adversary and a trace prefix dumps replayable JSONL from
   inside the farm worker — and the decision trace re-executes the run
   bit-identically as an oblivious schedule. *)
let test_cell_trace_replayable () =
  let dir = tmp_dir "trace-cell" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let prefix = Filename.concat dir "adv" in
  let cell =
    Cell.make ~family:"grid" ~n:9 ~w:4 ~adversary:"greedy" ~trace:prefix
      ~check:true "flood"
  in
  let s = Farm.sweep (Farm.config ~workers:1 ~dir ()) [ cell ] in
  Alcotest.(check int) "cell completed" 1 s.Farm.completed;
  Alcotest.(check int) "cell passed its invariant" 0 s.Farm.failed;
  let dumped = Printf.sprintf "%s--flood--0.jsonl" prefix in
  Alcotest.(check bool) "worker honoured the cell's trace knob" true
    (Sys.file_exists dumped);
  let module T = Csap_dsim.Trace in
  let tr = T.load_jsonl dumped in
  Alcotest.(check bool) "decision records dumped" true
    (Array.length (T.decisions tr) > 0);
  (* Replay: the recorded decisions, run as an oblivious oracle through
     the same registry entry, reproduce the trace modulo decisions. *)
  let g = Cell.graph cell in
  let module P = Csap.Protocol in
  let _, traces =
    T.with_collector (fun () ->
        P.run ~delay:(T.recorded tr) (P.find_exn "flood") g)
  in
  Alcotest.(check bool) "farm trace replays bit-identically" true
    (T.equal (T.without_decisions tr) (List.hd traces))

let test_sweep_cancellation () =
  let dir = tmp_dir "cancel" in
  (* Pre-placed cancel requests are honored at dequeue: the cell is
     recorded cancelled, never executed. *)
  Farm.request_cancel ~dir 1;
  let cfg = Farm.config ~workers:1 ~dir () in
  let s = Farm.sweep cfg sweep_cells in
  Alcotest.(check int) "two completed" 2 s.Farm.completed;
  Alcotest.(check int) "one cancelled" 1 s.Farm.cancelled;
  Alcotest.(check int) "none failed" 0 s.Farm.failed;
  let m = Manifest.load ~readonly:true (Farm.manifest_path ~dir) in
  let e1 = Option.get (Manifest.find m 1) in
  Alcotest.(check bool) "cell 1 cancelled" true
    (e1.Manifest.state = Manifest.Cancelled);
  Alcotest.(check bool) "cell 1 has no result" true (e1.Manifest.result = None)

let test_failed_cell_recorded () =
  let dir = tmp_dir "fail" in
  let cells = [ Cell.make ~family:"grid" ~n:9 "flood"; Cell.make "nosuch" ] in
  let s = Farm.sweep (Farm.config ~workers:1 ~dir ()) cells in
  Alcotest.(check int) "one completed" 1 s.Farm.completed;
  Alcotest.(check int) "one failed" 1 s.Farm.failed;
  let m = Manifest.load ~readonly:true (Farm.manifest_path ~dir) in
  let e = Option.get (Manifest.find m 1) in
  Alcotest.(check bool) "failure state" true
    (e.Manifest.state = Manifest.Failed);
  Alcotest.(check bool) "failure reason recorded" true
    (e.Manifest.error <> None)

(* The satellite's round trip: kill the sweep after the first cell's
   terminal state hits the manifest, resume, and demand (a) completed
   cells were not re-executed and (b) the merged results equal an
   uninterrupted run's. The crash is [Unix._exit] deep inside a worker
   domain — process death without unwinding, the file-state equivalent
   of SIGKILL. It must happen in a separate process so the test runner
   survives, and [Unix.fork] is unavailable once any domain has been
   spawned — so the test re-execs its own binary with a hidden flag
   that [Test_main] routes to {!crash_child}. *)

let crash_child ~dir =
  (try
     ignore
       (Farm.sweep (Farm.config ~workers:1 ~crash_after:1 ~dir ()) sweep_cells)
   with _ -> ());
  (* Reachable only if the crash hook never fired. *)
  Unix._exit 99

let test_crash_resume_roundtrip () =
  let dir = tmp_dir "crash" in
  let baseline_dir = tmp_dir "crash-baseline" in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--farm-crash-child"; dir |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "child died in the crash hook (exit 37)" true
    (status = Unix.WEXITED 37);
  (* The manifest must show a completed prefix and an incomplete rest. *)
  let m = Manifest.load ~readonly:true (Farm.manifest_path ~dir) in
  let _, _, d, _, _ = Manifest.counts m in
  Alcotest.(check int) "exactly one cell completed before the crash" 1 d;
  (* Resume. Completed cells are skipped, the remainder runs. *)
  let s =
    Farm.sweep ~resume:true (Farm.config ~workers:1 ~dir ()) sweep_cells
  in
  Alcotest.(check int) "resume skipped the completed cell" 1 s.Farm.skipped;
  Alcotest.(check int) "resume ran the remainder" 2 s.Farm.completed;
  Alcotest.(check int) "nothing failed" 0 s.Farm.failed;
  (* (a) Not re-executed: a cell's execution leaves exactly one
     "running" transition in the append-only manifest. The completed
     cell must still have exactly one; the re-run ones exactly two
     would be wrong too — they crashed before starting. *)
  let running_lines =
    let ic = open_in (Farm.manifest_path ~dir) in
    let lines = In_channel.input_lines ic in
    close_in ic;
    List.fold_left
      (fun acc line ->
        match Jsonx.parse line with
        | Ok j
          when Jsonx.to_str (Jsonx.member "kind" j) = Some "state"
               && Jsonx.to_str (Jsonx.member "state" j) = Some "running" -> (
          match Jsonx.to_int (Jsonx.member "id" j) with
          | Some id -> (id :: acc)
          | None -> acc)
        | _ -> acc)
      [] lines
  in
  let count id = List.length (List.filter (( = ) id) running_lines) in
  Alcotest.(check int) "completed cell started exactly once" 1 (count 0);
  Alcotest.(check int) "resumed cell 1 started exactly once" 1 (count 1);
  Alcotest.(check int) "resumed cell 2 started exactly once" 1 (count 2);
  (* (b) Merged results identical to an uninterrupted run. *)
  let uninterrupted =
    Farm.sweep (Farm.config ~workers:1 ~dir:baseline_dir ()) sweep_cells
  in
  Alcotest.(check int) "baseline clean" 0 uninterrupted.Farm.failed;
  Alcotest.(check (list (triple string int int)))
    "crash+resume results equal the uninterrupted run's"
    (results_of_manifest (Farm.manifest_path ~dir:baseline_dir))
    (results_of_manifest (Farm.manifest_path ~dir))

let test_serve_spool_and_events () =
  let dir = tmp_dir "serve" in
  (* Spool two cells before the server starts; quota exit after both. *)
  ignore (Farm.submit ~dir (List.nth sweep_cells 0));
  ignore (Farm.submit ~dir (List.nth sweep_cells 2));
  (* A malformed spool file is rejected, not fatal. *)
  let bad = Filename.concat (Filename.concat dir "spool") "job-zzz.json" in
  let oc = open_out bad in
  output_string oc "{nope}";
  close_out oc;
  let s =
    Farm.serve
      (Farm.config ~workers:1 ~max_jobs:2 ~poll_s:0.01 ~dir ())
  in
  Alcotest.(check int) "both spooled cells ran" 2 s.Farm.completed;
  Alcotest.(check int) "none failed" 0 s.Farm.failed;
  Alcotest.(check bool) "bad file quarantined" true
    (Sys.file_exists (bad ^ ".bad"));
  (* Lifecycle events: submitted/started/finished per cell, in order
     per cell, plus serving/stopped bracketing. *)
  let events =
    let ic = open_in (Farm.events_path ~dir) in
    let lines = In_channel.input_lines ic in
    close_in ic;
    List.filter_map
      (fun l ->
        match Jsonx.parse l with
        | Ok j -> Jsonx.to_str (Jsonx.member "event" j)
        | Error _ -> None)
      lines
  in
  Alcotest.(check bool) "has serving" true (List.mem "serving" events);
  Alcotest.(check bool) "has stopped" true (List.mem "stopped" events);
  Alcotest.(check bool) "has rejected" true (List.mem "rejected" events);
  Alcotest.(check int) "two submissions" 2
    (List.length (List.filter (( = ) "submitted") events));
  Alcotest.(check int) "two completions" 2
    (List.length (List.filter (( = ) "finished") events))

let suite =
  [
    Alcotest.test_case "jsonx round trip and errors" `Quick
      test_jsonx_roundtrip;
    Alcotest.test_case "cell canonical JSON and digest" `Quick
      test_cell_canonical;
    Alcotest.test_case "cell error classification and exit codes" `Quick
      test_cell_error_classification;
    Alcotest.test_case "manifest create/replay round trip" `Quick
      test_manifest_roundtrip;
    Alcotest.test_case "manifest torn tail tolerated, corruption named"
      `Quick test_manifest_torn_tail_and_corruption;
    Alcotest.test_case "writable load truncates a torn tail" `Quick
      test_manifest_writable_load_truncates_torn;
    Alcotest.test_case "torn repro confined to the farm dir" `Quick
      test_torn_repro_confined_to_farm_dir;
    Alcotest.test_case "sweep completes and resume skips" `Quick
      test_sweep_runs_and_resume_skips;
    Alcotest.test_case "farm cell dumps a replayable adaptive trace" `Quick
      test_cell_trace_replayable;
    Alcotest.test_case "cancellation short-circuits a queued cell" `Quick
      test_sweep_cancellation;
    Alcotest.test_case "failed cell recorded with reason" `Quick
      test_failed_cell_recorded;
    Alcotest.test_case "crash-resume round trip" `Quick
      test_crash_resume_roundtrip;
    Alcotest.test_case "serve ingests spool and streams events" `Quick
      test_serve_spool_and_events;
  ]
