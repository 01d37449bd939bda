module G = Csap_graph.Graph
module Paths = Csap_graph.Paths
module Delay = Csap_dsim.Delay
module Fault = Csap_dsim.Fault
module Trace = Csap_dsim.Trace
module Measures = Csap.Measures
module Protocol = Csap.Protocol

type 'a schedule = {
  label : string;
  make : unit -> 'a;
}

let seeded_schedules k =
  if k < 0 then invalid_arg "Sched_explore.seeded_schedules: negative count";
  List.init k (fun i ->
      (* Seeds spaced by a large odd constant so adjacent schedules don't
         share splitmix streams. *)
      {
        label = Printf.sprintf "seeded-%d" i;
        make = (fun () -> Delay.seeded (0x5eed + (i * 0x10001)));
      })

let adversarial_schedules g =
  let heavy = G.heaviest_edge g in
  [
    {
      label = Printf.sprintf "slow-edge-%d" heavy;
      make = (fun () -> Delay.slow_edge heavy);
    };
    { label = "race-crossing"; make = (fun () -> Delay.race_crossing) };
    { label = "near-zero"; make = (fun () -> Delay.Near_zero) };
  ]

(* The adaptive roster: adversaries that observe the engine and pick each
   delay online (fresh state per run via [make]). Their decision traces
   replay as oblivious schedules — [explore ~check_replay] asserts it. *)
let adaptive_schedules () =
  [
    { label = "greedy-commax"; make = Delay.greedy_commax };
    { label = "time-stretcher"; make = Delay.time_stretcher };
  ]

let fault_schedules g k =
  if k < 0 then invalid_arg "Sched_explore.fault_schedules: negative count";
  (* Time scale for outage/crash windows: the weighted diameter bounds a
     clean flood; faulty runs last longer, so windows placed within it
     are guaranteed to overlap the execution. *)
  let scale = float_of_int (max 1 (Paths.diameter g)) in
  let heavy = G.heaviest_edge g in
  let n = G.n g in
  List.init k (fun i ->
      (* Seeds spaced like the delay schedules' so fault and delay
         randomness never share splitmix streams. *)
      let seed = 0xfa17 + (i * 0x20003) in
      match i mod 4 with
      | 0 ->
        {
          label = Printf.sprintf "loss-%d" i;
          make = (fun () -> Fault.seeded ~loss:0.15 seed);
        }
      | 1 ->
        {
          label = Printf.sprintf "loss-dup-%d" i;
          make = (fun () -> Fault.seeded ~loss:0.08 ~dup:0.12 seed);
        }
      | 2 ->
        {
          label = Printf.sprintf "outage-%d" i;
          make =
            (fun () ->
              Fault.seeded ~loss:0.05
                ~outages:
                  [
                    {
                      Fault.edge = Some heavy;
                      from_time = 0.25 *. scale;
                      until_time = 0.75 *. scale;
                    };
                  ]
                seed);
        }
      | _ ->
        let v = 1 + ((i / 4) mod max 1 (n - 1)) in
        {
          label = Printf.sprintf "crash-v%d-%d" v i;
          make =
            (fun () ->
              Fault.seeded ~loss:0.05
                ~crashes:
                  [
                    {
                      Fault.vertex = v;
                      at = 0.3 *. scale;
                      restart = 0.9 *. scale;
                    };
                  ]
                seed);
        })

type target = {
  name : string;
  execute :
    G.t -> Delay.t -> Fault.plan option -> (Measures.t, string) result;
}

(* ------------------------------------------------------------------ *)
(* Registry-driven targets: every protocol in {!Csap.Protocol.registry} *)
(* can be swept; the invariant is the registry entry's own oracle       *)
(* check, so there is no per-protocol wiring here. A plan switches the  *)
(* reliable shim on: the shim is what makes the clean oracle hold on a  *)
(* faulty network.                                                      *)
(* ------------------------------------------------------------------ *)

let target_suffix ~needs_root root strip =
  (match root with
  | Some r when needs_root -> Printf.sprintf "-src%d" r
  | _ -> "")
  ^ match strip with Some s -> Printf.sprintf "-s%d" s | None -> ""

let target_for ?root ?strip name =
  let entry = Protocol.find_exn name in
  let (module P : Protocol.S) = entry in
  {
    name = P.name ^ target_suffix ~needs_root:P.caps.Protocol.needs_root
             root strip;
    execute =
      (fun g delay faults ->
        let reliable = faults <> None in
        let cfg =
          Protocol.Run.make ?root ~delay ?faults ~reliable ?strip g
        in
        let o = Protocol.execute entry cfg in
        match P.invariant cfg o with
        | Ok () -> Ok o.Protocol.Outcome.measures
        | Error e ->
          Error
            (Printf.sprintf "%s%s: %s"
               (if reliable then "rel-" else "")
               P.name e));
  }

(* The sweep roster: one target per trade-off family, cheap enough for
   every (schedule x target) pair of a sweep. *)
let registry_targets () =
  let root = 0 in
  [
    target_for ~root "flood";
    target_for "mst-ghs";
    target_for ~root "spt-synch";
    target_for ~root ~strip:2 "spt-recur";
    target_for ~root "sync-alpha";
  ]

(* The fault-sweep roster: every registry protocol that supports both a
   raw fault plan and the reliable shim and is cheap enough to sweep. *)
let registry_fault_targets () =
  let root = 0 in
  List.map
    (fun t -> { t with name = "rel-" ^ t.name })
    [
      target_for ~root "flood";
      target_for ~root "dfs-token";
      target_for ~root "mst-centr";
      target_for "mst-ghs";
      target_for ~root "spt-synch";
      target_for ~root "global-sum";
    ]

type run_result = {
  target : string;
  schedule : string;
  fault : string option;
  ok : bool;
  violation : string option;
  measures : Measures.t;
}

type overhead = {
  clean_comm : int;
  worst_overhead : float;
  mean_overhead : float;
}

type summary = {
  target_name : string;
  runs : run_result array;
  worst_time : float;
  worst_comm : int;
  failures : int;
  overhead : overhead option;
}

let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    label

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* The overhead denominator: the target under the exact-delay default
   with no plan, hence no shim. Its invariant must hold — a ratio over a
   broken baseline would be meaningless. *)
let clean_comm g (t : target) =
  match t.execute g Delay.Exact None with
  | Ok m -> m.Measures.comm
  | Error e ->
    failwith
      (Printf.sprintf "Sched_explore.explore: %s clean baseline failed: %s"
         t.name e)

let explore ?pool ?trace_dir ?(check_replay = false) ?faults g ~targets
    ~schedules =
  let targets = Array.of_list targets in
  let schedules = Array.of_list schedules in
  (* A clean sweep is the grid with one "no plan" column. *)
  let plans =
    match faults with
    | None -> [| None |]
    | Some fs -> Array.of_list (List.map Option.some fs)
  in
  let clean = Option.map (fun _ -> Array.map (clean_comm g) targets) faults in
  let nt = Array.length targets in
  let nf = Array.length plans in
  let per = Array.length schedules * nf in
  let cell i = (targets.(i / per), schedules.(i mod per / nf), plans.(i mod nf)) in
  let plan f = Option.map (fun f -> f.make ()) f in
  let results = Array.make (nt * per) None in
  if nt > 0 && per > 0 then begin
    let pool = match pool with Some p -> p | None -> Csap_pool.default () in
    Csap_pool.run pool ~tasks:(nt * per) (fun ~worker:_ i ->
        let t, s, f = cell i in
        let result ok violation measures =
          {
            target = t.name;
            schedule = s.label;
            fault = Option.map (fun f -> f.label) f;
            ok;
            violation;
            measures;
          }
        in
        results.(i) <-
          Some
            (match t.execute g (s.make ()) (plan f) with
            | Ok m -> result true None m
            | Error e -> result false (Some e) Measures.zero
            | exception e ->
              result false (Some (Printexc.to_string e)) Measures.zero))
  end;
  (* Replay audit (sequential: trace collectors are domain-local): record
     each passing run's trace, re-run it as an oblivious schedule under
     [Trace.recorded] with the same fault plan, and demand event-for-event
     equality modulo the Decision records only the recorded (possibly
     adaptive) run emits. This is what turns an adaptive worst case into
     a certificate: the decision trace alone reproduces the cost. *)
  if check_replay then
    Array.iteri
      (fun i r ->
        match r with
        | Some r when r.ok ->
          let t, s, f = cell i in
          let (), traces =
            Trace.with_collector (fun () ->
                ignore (t.execute g (s.make ()) (plan f)))
          in
          let violation =
            match traces with
            | [ tr ] ->
              let (), traces2 =
                Trace.with_collector (fun () ->
                    ignore (t.execute g (Trace.recorded tr) (plan f)))
              in
              (match traces2 with
              | [ tr2 ] when Trace.equal (Trace.without_decisions tr) tr2 ->
                None
              | _ -> Some "replay: re-run from trace diverged")
            | _ -> Some "replay: expected exactly one engine trace"
          in
          if violation <> None then
            results.(i) <- Some { r with ok = false; violation }
        | _ -> ())
      results;
  (* Failures get their schedule dumped: re-run the same deterministic
     (target, schedule, plan) cell under a collector and write every
     engine's trace, replayable via [Trace.recorded]. *)
  (match trace_dir with
  | None -> ()
  | Some dir ->
    Array.iteri
      (fun i r ->
        match r with
        | Some r when not r.ok ->
          mkdir_p dir;
          let t, s, f = cell i in
          let (), traces =
            Trace.with_collector (fun () ->
                try ignore (t.execute g (s.make ()) (plan f)) with _ -> ())
          in
          let plan_label =
            match f with None -> "" | Some f -> "--" ^ sanitize f.label
          in
          List.iteri
            (fun j tr ->
              Trace.save_jsonl tr
                (Filename.concat dir
                   (Printf.sprintf "%s--%s%s--%d.jsonl" (sanitize t.name)
                      (sanitize s.label) plan_label j)))
            traces
        | _ -> ())
      results);
  List.init nt (fun ti ->
      let runs = Array.init per (fun j -> Option.get results.((ti * per) + j)) in
      let passing = List.filter (fun r -> r.ok) (Array.to_list runs) in
      let overhead =
        Option.map
          (fun clean ->
            let clean_comm = clean.(ti) in
            let denom = float_of_int (max 1 clean_comm) in
            let factors =
              List.map
                (fun r -> float_of_int r.measures.Measures.comm /. denom)
                passing
            in
            {
              clean_comm;
              worst_overhead = List.fold_left Float.max 0.0 factors;
              mean_overhead =
                (match factors with
                | [] -> 0.0
                | _ ->
                  List.fold_left ( +. ) 0.0 factors
                  /. float_of_int (List.length factors));
            })
          clean
      in
      {
        target_name = targets.(ti).name;
        runs;
        worst_time =
          List.fold_left
            (fun acc r -> Float.max acc r.measures.Measures.time)
            0.0 passing;
        worst_comm =
          List.fold_left (fun acc r -> max acc r.measures.Measures.comm) 0
            passing;
        failures = per - List.length passing;
        overhead;
      })
