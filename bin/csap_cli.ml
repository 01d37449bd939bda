(* Command-line driver over the protocol registry.

   Every protocol in [Csap.Protocol.registry] is runnable by name; the
   registry supplies the runner, the capability flags and the oracle
   invariant, so this file contains no per-protocol wiring. Run
   configurations are [Csap_farm.Cell.t] values, so a one-shot `run`, a
   spooled `submit` and a farm `sweep` cell all share one vocabulary,
   one execution path and one exit-code contract:

     0  success (and, with --check, invariant ok)
     1  invariant failure (or a sweep/serve with failed cells)
     2  unknown protocol
     3  malformed spec or invalid configuration
     4  unexpected execution error

   Examples:
     csap_cli list
     csap_cli run mst-ghs --family complete -n 16 -w 5
     csap_cli run flood --family grid -n 25 --delay seeded:3 --check
     csap_cli sweep --dir /tmp/farm --protocols flood,mst-ghs \
       --delays exact,seeded:3 --family grid -n 25
     csap_cli serve --dir /tmp/farm --idle-exit 5 &
     csap_cli submit flood --dir /tmp/farm --family grid -n 25 --check
     csap_cli status --dir /tmp/farm
     csap_cli params --family gn -n 8 -w 4 *)

module P = Csap.Protocol
module Cell = Csap_farm.Cell
module Farm = Csap_farm.Farm
module Manifest = Csap_farm.Manifest

let unknown_protocol name =
  Format.eprintf "unknown protocol %S; try `csap_cli list`@." name;
  2

(* ---- list -------------------------------------------------------------- *)

let list_protocols names_only =
  if names_only then
    List.iter print_endline (P.names ())
  else begin
    Format.printf "%-14s %-13s %-6s %-4s %-4s %-4s %s@." "name" "category"
      "faults" "rel" "dom" "adv" "summary";
    List.iter
      (fun entry ->
        let (module M : P.S) = entry in
        Format.printf "%-14s %-13s %-6s %-4s %-4s %-4s %s@." M.name
          (P.category_name M.category)
          (if M.caps.P.fixed_family then "no" else "yes")
          (if M.caps.P.fixed_family then "no" else "yes")
          (if M.caps.P.supports_domains then "yes" else "no")
          (if M.caps.P.supports_adaptive then "yes" else "no")
          M.summary)
      P.registry
  end;
  0

(* ---- run --------------------------------------------------------------- *)

let run_protocol (cell : Cell.t) gc_stats =
  let name = cell.Cell.protocol in
  match P.find name with
  | None -> unknown_protocol name
  | Some _ -> (
    match Cell.graph cell with
    | exception Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      3
    | g -> (
      Format.printf "graph: %a@." Csap_graph.Params.pp
        (Csap_graph.Params.compute g);
      (* Pair of (quick_stat, minor_words): quick_stat's minor_words only
         advances at minor collections (OCaml 5.1); the dedicated external
         reads the live allocation pointer. *)
      let g0 =
        if gc_stats then Some (Gc.quick_stat (), Gc.minor_words ()) else None
      in
      let outcome = Cell.run ~graph:g cell in
      match outcome.Cell.result with
      | Error (Cell.Invariant_failed _ as err) ->
        Format.eprintf "%s@." (Cell.error_message err);
        Cell.error_exit_code err
      | Error err ->
        Format.eprintf "error: %s@." (Cell.error_message err);
        Cell.error_exit_code err
      | Ok o ->
        (* Snapshot before any printing so formatter allocation doesn't
           pollute the run's numbers. Note: with --domains the workers'
           minor words are invisible here (OCaml 5 GC counters are
           domain-local); this reports the driving domain. *)
        let gc_line =
          match g0 with
          | None -> None
          | Some (s0, w0) ->
            let s1 = Gc.quick_stat () in
            Some
              (Printf.sprintf
                 "minor_words=%.0f promoted_words=%.0f minor_gcs=%d \
                  major_gcs=%d top_heap_mb=%.1f"
                 (Gc.minor_words () -. w0)
                 (s1.Gc.promoted_words -. s0.Gc.promoted_words)
                 (s1.Gc.minor_collections - s0.Gc.minor_collections)
                 (s1.Gc.major_collections - s0.Gc.major_collections)
                 (float_of_int s1.Gc.top_heap_words *. 8.0 /. 1e6))
        in
        Format.printf "%-14s %a@." name Csap.Measures.pp
          o.P.Outcome.measures;
        (match gc_line with
        | Some line -> Format.printf "gc: %s@." line
        | None -> ());
        if o.P.Outcome.retransmissions > 0 || o.P.Outcome.restarts > 0 then
          Format.printf "transport: retransmissions=%d restarts=%d@."
            o.P.Outcome.retransmissions o.P.Outcome.restarts;
        List.iter
          (fun (key, v) -> Format.printf "%s: %s@." key v)
          o.P.Outcome.info;
        if cell.Cell.check then Format.printf "invariant: ok@.";
        0))

(* ---- params ------------------------------------------------------------ *)

let show_params family n w seed domains =
  let cell = Cell.make ~family ~n ~w ~seed "params" in
  match Cell.graph cell with
  | exception Invalid_argument msg ->
    Format.eprintf "error: %s@." msg;
    3
  | g ->
    Format.printf "graph: %a@." Csap_graph.Params.pp
      (Csap_graph.Params.compute g);
    (match domains with
    | Some k when k > 1 ->
      (* Partitioned-execution view: how the striped and BFS partitions cut
         this graph, and the conservative lookahead each would give the
         partitioned engine under exact delays. *)
      List.iter
        (fun (label, part) ->
          let mcw = Csap_graph.Partition.min_cut_weight g part in
          Format.printf "%s: %a lookahead=%s@." label Csap_graph.Partition.pp
            part
            (if mcw = max_int then "inf" else string_of_int mcw))
        [
          ("striped", Csap_graph.Partition.striped g ~k);
          ("bfs", Csap_graph.Partition.bfs g ~k);
        ]
    | _ -> ());
    0

(* ---- farm: serve / sweep / submit / status / cancel -------------------- *)

let summary_exit (s : Farm.summary) =
  Format.printf "farm: %a@." Farm.pp_summary s;
  if s.Farm.failed = 0 then 0 else 1

let serve_farm dir workers queue_cap poll max_jobs idle_exit resume quiet =
  let cfg =
    Farm.config ~workers ~queue_cap ~poll_s:poll ?max_jobs
      ?idle_exit_s:idle_exit ~verbose:(not quiet) ~dir ()
  in
  match Farm.serve ~resume cfg with
  | exception Invalid_argument msg ->
    Format.eprintf "error: %s@." msg;
    3
  | s -> summary_exit s

let split_commas s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let sweep_farm dir workers queue_cap resume quiet cells_file protocols delays
    adversaries family n w seed root loss dup fault_seed reliable no_check =
  let check = not no_check in
  let cells =
    match cells_file with
    | Some path -> (
      let ic = open_in path in
      let lines = In_channel.input_lines ic in
      close_in ic;
      let rec parse i acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
          if String.trim line = "" then parse (i + 1) acc rest
          else (
            match Cell.of_json line with
            | Ok c -> parse (i + 1) (c :: acc) rest
            | Error e -> Error (Printf.sprintf "%s: line %d: %s" path i e))
      in
      match parse 1 [] lines with
      | Ok cells -> Ok cells
      | Error e -> Error e)
    | None -> (
      match (protocols, resume) with
      | None, true -> Ok []  (* take the manifest's cells *)
      | None, false -> Error "no cells: pass --protocols or --cells FILE"
      | Some ps, _ ->
        Ok
          (List.concat_map
             (fun p ->
               List.map
                 (fun d ->
                   Cell.make ~family ~n ~w ~seed ~root ~delay:d ~loss ~dup
                     ~fault_seed ~reliable ~check p)
                 (split_commas (Option.value ~default:"exact" delays))
               @ List.map
                   (fun a ->
                     Cell.make ~family ~n ~w ~seed ~root ~adversary:a ~loss
                       ~dup ~fault_seed ~reliable ~check p)
                   (split_commas (Option.value ~default:"" adversaries)))
             (split_commas ps)))
  in
  match cells with
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    3
  | Ok cells -> (
    let cfg =
      Farm.config ~workers ~queue_cap ~verbose:(not quiet) ~dir ()
    in
    match Farm.sweep ~resume cfg cells with
    | exception Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      3
    | s -> summary_exit s)

let submit_cell dir (cell : Cell.t) =
  match Cell.prepare cell with
  | Error (Cell.Unknown_protocol _) -> unknown_protocol cell.Cell.protocol
  | Error err ->
    Format.eprintf "error: %s@." (Cell.error_message err);
    Cell.error_exit_code err
  | Ok _ ->
    let file = Farm.submit ~dir cell in
    Format.printf "submitted %s (digest %s)@." file (Cell.digest cell);
    0

let status_farm dir assert_done =
  let path = Farm.manifest_path ~dir in
  if not (Sys.file_exists path) then begin
    Format.eprintf "error: no manifest at %s@." path;
    3
  end
  else
    match Manifest.load ~readonly:true path with
    | exception Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      4
    | man ->
      List.iter
        (fun (e : Manifest.entry) ->
          Format.printf "%4d  %-9s %-14s %s%s@." e.Manifest.id
            (Manifest.state_name e.Manifest.state)
            e.Manifest.cell.Cell.protocol e.Manifest.digest
            (match e.Manifest.error with
            | Some err -> "  " ^ err
            | None -> ""))
        (Manifest.entries man);
      let p, r, d, f, c = Manifest.counts man in
      Format.printf "pending=%d running=%d done=%d failed=%d cancelled=%d%s@."
        p r d f c
        (if Manifest.torn man then "  (torn trailing line dropped)" else "");
      if assert_done && (p > 0 || r > 0 || f > 0) then 1 else 0

let cancel_farm dir id =
  Farm.request_cancel ~dir id;
  Format.printf "cancel requested for cell %d@." id;
  0

(* ---- bounds ------------------------------------------------------------ *)

let show_bounds name_opt names_only check =
  let entries =
    match name_opt with
    | None -> Ok P.registry
    | Some name -> (
      match P.find name with Some e -> Ok [ e ] | None -> Error name)
  in
  match entries with
  | Error name -> unknown_protocol name
  | Ok entries ->
    if names_only then begin
      List.iter (fun (module M : P.S) -> print_endline M.name) entries;
      0
    end
    else if not check then begin
      List.iter
        (fun (module M : P.S) ->
          List.iter
            (fun c -> Format.printf "%-14s %s@." M.name (P.Claim.to_string c))
            M.claimed)
        entries;
      0
    end
    else begin
      let failed =
        List.fold_left
          (fun acc entry ->
            let r = Csap.Bound_check.check_entry entry in
            Format.printf "%a@." Csap.Bound_check.pp_report r;
            acc + List.length (Csap.Bound_check.failures r))
          0 entries
      in
      if failed = 0 then 0
      else begin
        Format.eprintf "%d claim(s) measured over their bound@." failed;
        1
      end
    end

(* ---- cmdliner ---------------------------------------------------------- *)

open Cmdliner

let exits =
  Cmd.Exit.info 0 ~doc:"Success (with $(b,--check): invariant ok)."
  :: Cmd.Exit.info 1
       ~doc:
         "Invariant failure; for farm commands, at least one failed cell."
  :: Cmd.Exit.info 2 ~doc:"Unknown protocol name."
  :: Cmd.Exit.info 3 ~doc:"Malformed spec or invalid configuration."
  :: Cmd.Exit.info 4 ~doc:"Unexpected execution error."
  :: Cmd.Exit.defaults

let family =
  let doc =
    "Graph family: path, cycle, star, complete, grid, random, geometric, \
     gn, chorded, bkj."
  in
  Arg.(value & opt string "random" & info [ "family"; "f" ] ~doc)

let n = Arg.(value & opt int 16 & info [ "n" ] ~doc:"Number of vertices.")
let w = Arg.(value & opt int 8 & info [ "w" ] ~doc:"Weight parameter.")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let root =
  Arg.(value & opt int 0 & info [ "root" ] ~doc:"Root / source vertex.")

(* Parsed in the command body (not an [Arg.conv]) so a malformed spec
   reports exit code 3, not cmdliner's generic 124. *)
let delay =
  Arg.(
    value
    & opt (some string) None
    & info [ "delay" ] ~docv:"SPEC"
        ~doc:
          "Delay oracle: exact, near-zero, race, scaled:C, seeded:N, \
           slow-edge:ID. Default: exact.")

let adversary =
  Arg.(
    value
    & opt (some string) None
    & info [ "adversary" ] ~docv:"SPEC"
        ~doc:
          "Adaptive adversary observing the execution: greedy (pins \
           delivery on the busiest edge), stretch (serialises the \
           critical path). Conflicts with --delay; protocols without \
           the `adv' capability reject it.")

let loss =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~doc:"Per-message loss probability in [0, 1).")

let dup =
  Arg.(
    value & opt float 0.0
    & info [ "dup" ] ~doc:"Per-message duplication probability in [0, 1).")

let fault_seed =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~doc:"Seed for the fault plan coins.")

let reliable =
  Arg.(
    value & flag
    & info [ "reliable" ] ~doc:"Route through the reliable-delivery shim.")

let pulses =
  Arg.(
    value
    & opt (some int) None
    & info [ "pulses" ] ~doc:"Pulses for clock / synchronizer protocols.")

let strip =
  Arg.(
    value & opt (some int) None
    & info [ "strip" ] ~doc:"SPT_recur strip depth.")

let k_arg =
  Arg.(
    value & opt (some int) None
    & info [ "k" ] ~doc:"Gamma_w cluster parameter.")

let q_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "q" ] ~doc:"SLT balance parameter.")

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
        ~doc:
          "Run on the partitioned engine across this many OCaml domains \
           (protocols with `dom' capability; excludes faults/reliable).")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Check the outcome against the sequential oracles; exit 1 on \
           failure.")

let pname =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"NAME" ~doc:"Protocol name (see `csap_cli list`).")

let farm_dir =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Farm directory.")

let workers =
  Arg.(
    value & opt int 2 & info [ "workers"; "j" ] ~doc:"Worker domains.")

let queue_cap =
  Arg.(
    value & opt int 16
    & info [ "queue-cap" ]
        ~doc:"Bounded worker-queue capacity (backpressure bound).")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume the directory's checkpoint manifest: completed cells \
           are skipped, interrupted ones re-run.")

let quiet =
  Arg.(
    value & flag & info [ "quiet" ] ~doc:"Suppress per-event progress lines.")

(* The one cell spec of [run] and [submit]: protocol name, graph,
   schedule, faults, knobs and the trace prefix, whose meaning differs
   only in [trace_doc]. *)
let cell_term ~trace_doc =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PREFIX" ~doc:trace_doc)
  in
  let make name family n w seed root delay adversary loss dup fault_seed
      reliable pulses strip k q domains trace check =
    Cell.make ~family ~n ~w ~seed ~root ?delay ?adversary ~loss ~dup
      ~fault_seed ~reliable ?pulses ?strip ?k ?q ?domains ?trace ~check name
  in
  Term.(
    const make $ pname $ family $ n $ w $ seed $ root $ delay $ adversary
    $ loss $ dup $ fault_seed $ reliable $ pulses $ strip $ k_arg $ q_arg
    $ domains $ trace $ check)

let list_cmd =
  let names_only =
    Arg.(
      value & flag
      & info [ "names" ] ~doc:"Print bare protocol names, one per line.")
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List every registered protocol.")
    Term.(const list_protocols $ names_only)

let run_cmd =
  let gc_stats =
    Arg.(
      value & flag
      & info [ "gc-stats" ]
          ~doc:
            "Print a `gc:' line after the run: minor/promoted words, \
             minor/major collection counts and top heap size measured \
             across the protocol execution (driving domain only).")
  in
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:"Run one registered protocol on a generated graph.")
    Term.(
      const run_protocol
      $ cell_term ~trace_doc:"Dump engine traces as PREFIX--<name>--<i>.jsonl."
      $ gc_stats)

let serve_cmd =
  let poll =
    Arg.(
      value & opt float 0.05
      & info [ "poll" ] ~doc:"Spool poll interval, seconds.")
  in
  let max_jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-jobs" ]
          ~doc:"Exit after this many cells reach a terminal state.")
  in
  let idle_exit =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-exit" ] ~docv:"SECONDS"
          ~doc:
            "Exit after this long with nothing queued, running or spooled.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the farm job server: ingest spooled cells, execute them on \
          worker domains, checkpoint every transition.")
    Term.(
      const serve_farm $ farm_dir $ workers $ queue_cap $ poll $ max_jobs
      $ idle_exit $ resume $ quiet)

let sweep_cmd =
  let cells_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "cells" ] ~docv:"FILE"
          ~doc:"Read cells from FILE, one JSON object per line.")
  in
  let protocols =
    Arg.(
      value
      & opt (some string) None
      & info [ "protocols"; "p" ] ~docv:"NAMES"
          ~doc:"Comma-separated protocol names to sweep.")
  in
  let delays =
    Arg.(
      value
      & opt (some string) None
      & info [ "delays" ] ~docv:"SPECS"
          ~doc:"Comma-separated delay specs (default: exact).")
  in
  let adversaries =
    Arg.(
      value
      & opt (some string) None
      & info [ "adversaries" ] ~docv:"SPECS"
          ~doc:
            "Comma-separated adaptive adversary specs; each adds one \
             cell per protocol alongside the --delays cells.")
  in
  let no_check =
    Arg.(
      value & flag
      & info [ "no-check" ] ~doc:"Skip the sequential-oracle invariants.")
  in
  Cmd.v
    (Cmd.info "sweep" ~exits
       ~doc:
         "Run a batch of cells to completion through the farm (same code \
          path and checkpoint manifest as `serve').")
    Term.(
      const sweep_farm $ farm_dir $ workers $ queue_cap $ resume $ quiet
      $ cells_file $ protocols $ delays $ adversaries $ family $ n $ w $ seed
      $ root $ loss $ dup $ fault_seed $ reliable $ no_check)

let submit_cmd =
  let trace_doc =
    "Bake a trace-dump prefix into the cell: the worker that runs it \
     dumps replayable JSONL as PREFIX--<name>--<i>.jsonl."
  in
  Cmd.v
    (Cmd.info "submit" ~exits
       ~doc:"Spool one cell into a farm directory for a running server.")
    Term.(const submit_cell $ farm_dir $ cell_term ~trace_doc)

let status_cmd =
  let assert_done =
    Arg.(
      value & flag
      & info [ "assert-done" ]
          ~doc:
            "Exit 1 unless every cell is terminal and none failed (for \
             CI assertions).")
  in
  Cmd.v
    (Cmd.info "status" ~exits
       ~doc:"Print a farm manifest's cells, states and counts.")
    Term.(const status_farm $ farm_dir $ assert_done)

let cancel_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"ID" ~doc:"Cell id (see `csap_cli status`).")
  in
  Cmd.v
    (Cmd.info "cancel" ~exits
       ~doc:
         "Request cancellation of a queued cell (cells already running \
          finish normally).")
    Term.(const cancel_farm $ farm_dir $ id)

let params_cmd =
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ]
          ~doc:
            "Also print how a K-way striped and BFS partition would cut \
             the graph for the partitioned engine.")
  in
  Cmd.v
    (Cmd.info "params"
       ~doc:"Print the weighted parameters of a generated graph.")
    Term.(const show_params $ family $ n $ w $ seed $ domains)

let bounds_cmd =
  let name_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Restrict to one protocol (default: the whole registry).")
  in
  let names_only =
    Arg.(
      value & flag
      & info [ "names" ]
          ~doc:"Print the bare names of claim-carrying protocols.")
  in
  let check_fits =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Sweep each protocol over its bound-check family and fit the \
             measured costs against every claim; exit 1 if any measured \
             curve grows over its claimed expression.")
  in
  Cmd.v
    (Cmd.info "bounds" ~exits
       ~doc:
         "List (or, with $(b,--check), verify) the registry's symbolic \
          cost claims.")
    Term.(const show_bounds $ name_opt $ names_only $ check_fits)

let cmd =
  let doc = "cost-sensitive communication protocols (Awerbuch-Baratz-Peleg)" in
  Cmd.group
    (Cmd.info "csap_cli" ~doc)
    [
      list_cmd; run_cmd; params_cmd; bounds_cmd; serve_cmd; sweep_cmd;
      submit_cmd; status_cmd; cancel_cmd;
    ]

let () = exit (Cmd.eval' cmd)
