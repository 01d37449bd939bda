(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (see DESIGN.md section 3 for the index).

   Figures declare independent jobs (see [Report.figure]); the
   work-stealing [Csap_pool] runs them on OCaml 5 domains, then every
   figure is rendered in declaration order from the collected rows. A
   figure run is a deterministic check generator: the printed tables and
   BENCH_RESULTS.json (every figure's rows) are byte-identical whatever
   the parallelism. Timings live in bench/perf; only the opt-in [micro]
   pairs measure time here.

   Usage:
     dune exec bench/main.exe                 # all figures, parallel
     dune exec bench/main.exe f3 cs           # selected figures
     dune exec bench/main.exe micro           # bechamel micro-benchmarks
     dune exec bench/main.exe -- --seq        # sequential (same output)
     dune exec bench/main.exe -- -j 4         # pool width
     dune exec bench/main.exe -- --json PATH  # result file (--no-json to skip) *)

let benches =
  [
    ("f1", Bench_trees.f1);
    ("f2", Bench_connectivity.f2);
    ("f3", Bench_mst.f3);
    ("f4", Bench_spt.f4);
    ("f5", Bench_trees.f5);
    ("f6", Bench_trees.f6);
    ("f7", Bench_connectivity.f7);
    ("f8", Bench_connectivity.f8);
    ("f9", Bench_spt.f9);
    ("cs", Bench_sync.cs);
    ("sy", Bench_sync.sy);
    ("ct", Bench_ctrl.ct);
    ("sx", Bench_sched.sx);
    ("ax", Bench_adversary.ax);
    ("fx", Bench_fault.fx);
    ("rg", Bench_registry.rg);
    ("px", Bench_pengine.px);
    ("fm", Bench_farm.fm);
    ("bd", Bench_bound.bd);
  ]

type options = {
  jobs : int;
  micro : bool;
  selected : string list;  (* in command-line order; [] = all *)
  json : string option;
}

let usage () =
  Format.eprintf
    "usage: main.exe [FIGURE...] [micro] [-j N] [--seq] [--json PATH] \
     [--no-json]@.";
  exit 1

let default_options =
  {
    jobs = max 1 (min 8 (Domain.recommended_domain_count () - 1));
    micro = false;
    selected = [];
    json = Some "BENCH_RESULTS.json";
  }

let rec parse opts = function
  | [] -> opts
  | "-j" :: n :: rest -> (
    match int_of_string_opt n with
    | Some j when j >= 1 -> parse { opts with jobs = j } rest
    | _ -> usage ())
  | "--seq" :: rest -> parse { opts with jobs = 1 } rest
  | "--json" :: path :: rest -> parse { opts with json = Some path } rest
  | "--no-json" :: rest -> parse { opts with json = None } rest
  | arg :: rest ->
    let a = String.lowercase_ascii arg in
    if a = "micro" then parse { opts with micro = true } rest
    else if List.mem_assoc a benches then
      parse { opts with selected = opts.selected @ [ a ] } rest
    else begin
      Format.eprintf "unknown bench id: %s@." arg;
      usage ()
    end

(* ---- job slots --------------------------------------------------------- *)

type slot =
  | Pending
  | Done of Report.cell list list
  | Failed of string

let () =
  let opts =
    match Array.to_list Sys.argv with
    | _ :: rest -> parse default_options rest
    | [] -> default_options
  in
  let to_run =
    if opts.selected = [] && not opts.micro then benches
    else List.map (fun id -> (id, List.assoc id benches)) opts.selected
  in
  Format.printf
    "cost-sensitive analysis of communication protocols -- benchmark \
     harness@.";
  Format.printf
    "(paper: Awerbuch, Baratz, Peleg, PODC 1990 / MIT-LCS-TM-453)@.";
  (* Construct the figures (cheap: shared instances + job closures), then
     flatten every job into one task array over preallocated result
     slots. *)
  let figures = List.map (fun (_, make) -> make ()) to_run in
  let slots =
    List.map
      (fun fig -> Array.make (List.length fig.Report.jobs) Pending)
      figures
  in
  let tasks =
    List.concat
      (List.map2
         (fun fig fig_slots ->
           List.mapi
             (fun ji job () ->
               fig_slots.(ji) <-
                 (match job.Report.run () with
                 | rows -> Done rows
                 | exception e ->
                   Failed
                     (Printf.sprintf "%s/%s: %s" fig.Report.id
                        job.Report.label (Printexc.to_string e))))
             fig.Report.jobs)
         figures slots)
    |> Array.of_list
  in
  (* Each task writes exactly one slot; the pool joins every domain
     before returning, so the post-run reads race with nothing. *)
  let pool = Csap_pool.create ~domains:opts.jobs () in
  Csap_pool.run pool ~tasks:(Array.length tasks) (fun ~worker:_ i ->
      tasks.(i) ());
  let figure_results =
    List.map2
      (fun fig fig_slots ->
        let rows =
          Array.map
            (function
              | Done rows -> rows
              | Failed msg ->
                Format.eprintf "bench job failed: %s@." msg;
                exit 1
              | Pending -> assert false)
            fig_slots
        in
        (fig, rows))
      figures slots
  in
  (* Render in declaration order, sequentially, after all jobs finished:
     the output is independent of the pool's scheduling. *)
  List.iter
    (fun (fig, rows) ->
      Report.heading fig.Report.id fig.Report.title;
      fig.Report.render rows)
    figure_results;
  let micro_rows = if opts.micro then Bench_micro.run () else [] in
  (match opts.json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Report.to_json figure_results micro_rows);
    output_char oc '\n';
    close_out oc;
    Format.eprintf "wrote %s@." path);
  Format.printf "@.done.@."
