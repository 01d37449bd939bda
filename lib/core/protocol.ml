module G = Csap_graph.Graph
module Tree = Csap_graph.Tree
module Delay = Csap_dsim.Delay
module Net = Csap_dsim.Net

module Run = struct
  type cfg = {
    graph : G.t;
    root : int;
    spec : Net.spec;
    trace : string option;
    pulses : int option;
    strip : int option;
    k : int option;
    q : float option;
    domains : int option;
  }

  let make ?(root = 0) ?(delay = Delay.Exact) ?faults ?(reliable = false)
      ?trace ?pulses ?strip ?k ?q ?domains graph =
    { graph; root; spec = { Net.delay; faults; reliable }; trace; pulses;
      strip; k; q; domains }
end

module Outcome = struct
  type payload =
    | Spanning_tree of Tree.t
    | Flood_wave of { tree : Tree.t; arrival : float array }
    | Dfs_walk of { tree : Tree.t; est_c : int; est_r : int }
    | Clock_pulses of Clock_sync.result
    | Sync_states of {
        source : int;
        states : Spt_synch.state array;
        pulses : int;
        proto_comm : int;
      }
    | Outputs of int array
    | Gn_bounds of Lower_bound.gn_run

  type t = {
    protocol : string;
    measures : Measures.t;
    retransmissions : int;
    restarts : int;
    payload : payload;
    info : (string * string) list;
  }

  let tree t =
    match t.payload with
    | Spanning_tree tr -> Some tr
    | Flood_wave { tree; _ } -> Some tree
    | Dfs_walk { tree; _ } -> Some tree
    | _ -> None
end

type category =
  | Connectivity
  | Mst
  | Spt
  | Slt
  | Global
  | Clock
  | Synchronizer
  | Bound

let category_name = function
  | Connectivity -> "connectivity"
  | Mst -> "mst"
  | Spt -> "spt"
  | Slt -> "slt"
  | Global -> "global"
  | Clock -> "clock"
  | Synchronizer -> "synchronizer"
  | Bound -> "bound"

type caps = {
  needs_root : bool;
  fixed_family : bool;
  supports_domains : bool;
  supports_adaptive : bool;
}

let default_caps =
  {
    needs_root = true;
    fixed_family = false;
    supports_domains = false;
    supports_adaptive = true;
  }

(* Which of the paper's parameters a claim in each category may
   mention. Connectivity through Global are graph protocols whose
   bounds are stated over the global parameters; clock synchronizers
   and synchronizers additionally use the neighbour distance [d]; the
   lower-bound family is stated purely over [E], [n], [V]. *)
let allowed_vars = function
  | Connectivity | Mst | Spt | Slt | Global ->
    Bound.[ N; LogN; E; V; D; W ]
  | Clock | Synchronizer -> Bound.all_vars
  | Bound -> Bound.[ N; E; V ]

module Claim = struct
  type metric = Comm | Time

  let metric_name = function Comm -> "comm" | Time -> "time"

  type t = {
    metric : metric;
    bound : Bound.expr;  (** canonical *)
    regime : string option;
        (** the capability regime the claim holds in, when narrower
            than "any clean run" *)
  }

  let make ?regime metric s =
    { metric; bound = Bound.of_string_exn s; regime }

  let comm ?regime s = make ?regime Comm s
  let time ?regime s = make ?regime Time s

  let to_string c =
    Printf.sprintf "%s = O(%s)%s" (metric_name c.metric)
      (Bound.to_string c.bound)
      (match c.regime with None -> "" | Some r -> "  [" ^ r ^ "]")
end

module type S = sig
  val name : string
  val summary : string
  val category : category
  val caps : caps

  (** The paper's claimed cost bounds for this protocol, as symbolic
      expressions over the measured parameters (checked by figure BD
      and [csap_cli bounds]). At least a communication claim; a time
      claim unless the protocol reports no meaningful time. *)
  val claimed : Claim.t list

  (** Raw runner; called by {!execute} after uniform validation. *)
  val run : Run.cfg -> Outcome.t

  (** Check the protocol's correctness condition against the sequential
      oracles (Dijkstra / Kruskal / synchronous reference / causality). *)
  val invariant : Run.cfg -> Outcome.t -> (unit, string) result
end

type entry = (module S)

(* ------------------------------------------------------------------ *)
(* Shared oracle checks.                                               *)
(* ------------------------------------------------------------------ *)

let clean cfg =
  cfg.Run.spec.Net.faults = None && not cfg.Run.spec.Net.reliable

(* True when the run's schedule is the deterministic exact-delay
   default. *)
let exact_delay cfg =
  match cfg.Run.spec.Net.delay with Delay.Exact -> true | _ -> false

let check_spanning g tree =
  if Tree.is_spanning_tree_of g tree then Ok ()
  else Error "not a spanning tree of the graph"

let check_mst g tree =
  match check_spanning g tree with
  | Error _ as e -> e
  | Ok () ->
    if Csap_graph.Mst.is_mst g tree then Ok ()
    else Error "spanning tree is not an MST"

(* The error [fails v] reports for the first vertex [v < n] it reports
   one for, or [Ok ()]. *)
let first_failure n fails =
  let rec go v =
    if v = n then Ok ()
    else match fails v with Some msg -> Error msg | None -> go (v + 1)
  in
  go 0

(* Weighted depth inside [tree] must equal the true shortest-path
   distance from [root] for every vertex. *)
let check_spt g ~root tree =
  match check_spanning g tree with
  | Error _ as e -> e
  | Ok () ->
    let dist = (Csap_graph.Paths.dijkstra g ~src:root).Csap_graph.Paths.dist in
    first_failure (G.n g) (fun v ->
        let d = Tree.depth tree v in
        if d = dist.(v) then None
        else
          Some
            (Printf.sprintf
               "vertex %d: tree distance %d <> shortest distance %d" v d
               dist.(v)))

(* [check] applied to the outcome's tree, for payloads that carry one. *)
let on_tree check (o : Outcome.t) =
  match Outcome.tree o with
  | Some tree -> check tree
  | None -> Error "unexpected payload"

(* The partitioned entries record the domain count they ran on. *)
let domains_info cfg =
  match cfg.Run.domains with
  | Some d when d > 1 -> [ ("domains", string_of_int d) ]
  | _ -> []

(* [protocol] is left empty here and stamped by [entry]. *)
let outcome ~measures ?(transport = Net.no_stats) ?(info = []) payload =
  {
    Outcome.protocol = "";
    measures;
    retransmissions = transport.Net.retransmissions;
    restarts = transport.Net.restarts;
    payload;
    info;
  }

(* One registry entry: the runner's outcome is stamped with the entry's
   name, so no runner repeats it. *)
let entry ~name ~summary ~category ?(caps = default_caps) ~claimed
    ~invariant run : entry =
  (module struct
    let name = name
    let summary = summary
    let category = category
    let caps = caps
    let claimed = claimed
    let run cfg = { (run cfg) with Outcome.protocol = name }
    let invariant = invariant
  end)

(* ------------------------------------------------------------------ *)
(* Section 6/7: connectivity.                                          *)
(* ------------------------------------------------------------------ *)

let flood =
  entry ~name:"flood"
    ~summary:"CON_flood: spanning tree by flooding (Section 6.1)"
    ~category:Connectivity
    ~caps:{ default_caps with supports_domains = true }
    ~claimed:
      [
        Claim.comm "2 * E";
        Claim.time ~regime:"clean run, delays bounded by weights" "D";
      ]
    ~invariant:(fun cfg (o : Outcome.t) ->
      match o.Outcome.payload with
      | Outcome.Flood_wave { tree; arrival } -> (
        match check_spanning cfg.Run.graph tree with
        | Error _ as e -> e
        | Ok () ->
          if clean cfg then begin
            (* Delays never exceed weights, so no schedule can make the
               wave slower than the weighted shortest path; under exact
               delays it arrives exactly on it. *)
            let dist =
              (Csap_graph.Paths.dijkstra cfg.Run.graph ~src:cfg.Run.root)
                .Csap_graph.Paths.dist
            in
            let exact = exact_delay cfg in
            first_failure (Array.length arrival) (fun v ->
                let t = arrival.(v) and d = float_of_int dist.(v) in
                if t > d +. 1e-9 || (exact && t < d -. 1e-9) then
                  Some
                    (Printf.sprintf
                       "vertex %d: arrival %g vs shortest distance %g" v t d)
                else None)
          end
          else Ok ())
      | _ -> Error "unexpected payload")
    (fun cfg ->
      let r =
        Flood.run ~spec:cfg.Run.spec ?domains:cfg.Run.domains cfg.Run.graph
          ~source:cfg.Run.root
      in
      outcome ~measures:r.Flood.measures ~transport:r.Flood.transport
        ~info:(domains_info cfg)
        (Outcome.Flood_wave { tree = r.Flood.tree; arrival = r.Flood.arrival }))

let dfs_token =
  entry ~name:"dfs-token"
    ~summary:"token DFS with root/centre cost estimates (Section 6.2)"
    ~category:Connectivity
    ~claimed:[ Claim.comm "4 * E"; Claim.time "4 * E" ]
    ~invariant:(fun cfg (o : Outcome.t) ->
      match o.Outcome.payload with
      | Outcome.Dfs_walk { tree; est_c; est_r } -> (
        match check_spanning cfg.Run.graph tree with
        | Error _ as e -> e
        | Ok () ->
          (* The 2-approximation invariant of Section 6.2. *)
          if est_c = 0 || (est_r <= est_c && est_c <= 2 * est_r) then Ok ()
          else
            Error
              (Printf.sprintf "estimates out of relation: EST_C %d, EST_R %d"
                 est_c est_r))
      | _ -> Error "unexpected payload")
    (fun cfg ->
      let r =
        Dfs_token.run ~spec:cfg.Run.spec cfg.Run.graph ~root:cfg.Run.root
      in
      outcome ~measures:r.Dfs_token.measures ~transport:r.Dfs_token.transport
        (Outcome.Dfs_walk
           {
             tree = r.Dfs_token.dfs_tree;
             est_c = r.Dfs_token.final_center_estimate;
             est_r = r.Dfs_token.final_root_estimate;
           }))

let con_hybrid =
  entry ~name:"con-hybrid"
    ~summary:"CON_hybrid: DFS raced against MST_centr (Section 7.2)"
    ~category:Connectivity
    ~claimed:[ Claim.comm "min(E, n * V)"; Claim.time "min(E, n * V)" ]
    ~invariant:(fun cfg -> on_tree (check_spanning cfg.Run.graph))
    (fun cfg ->
      let r =
        Con_hybrid.run ~spec:cfg.Run.spec cfg.Run.graph ~root:cfg.Run.root
      in
      outcome ~measures:r.Con_hybrid.measures
        ~transport:r.Con_hybrid.transport
        ~info:
          [
            ( "winner",
              match r.Con_hybrid.winner with
              | Con_hybrid.Dfs -> "dfs"
              | Con_hybrid.Mst_centr -> "mst-centr" );
            ("dfs_estimate", string_of_int r.Con_hybrid.dfs_estimate);
            ("mst_estimate", string_of_int r.Con_hybrid.mst_estimate);
          ]
        (Outcome.Spanning_tree r.Con_hybrid.spanning_tree))

(* ------------------------------------------------------------------ *)
(* Sections 6.3 / 8: minimum spanning trees.                           *)
(* ------------------------------------------------------------------ *)

let mst_invariant cfg = on_tree (check_mst cfg.Run.graph)

let mst_centr =
  entry ~name:"mst-centr"
    ~summary:"MST_centr: full-information distributed Prim (Section 6.3)"
    ~category:Mst
    ~claimed:[ Claim.comm "n * V"; Claim.time "n * V" ]
    ~invariant:mst_invariant
    (fun cfg ->
      let r =
        Centr_growth.run_mst ~spec:cfg.Run.spec cfg.Run.graph ~root:cfg.Run.root
      in
      outcome ~measures:r.Centr_growth.measures
        ~transport:r.Centr_growth.transport
        ~info:[ ("phases", string_of_int r.Centr_growth.phases) ]
        (Outcome.Spanning_tree r.Centr_growth.grown_tree))

let mst_ghs =
  entry ~name:"mst-ghs"
    ~summary:"GHS minimum spanning tree (the Section 8 baseline)"
    ~category:Mst
    ~caps:{ default_caps with needs_root = false }
    ~claimed:[ Claim.comm "E + V * logn"; Claim.time "E + V * logn" ]
    ~invariant:mst_invariant
    (fun cfg ->
      let r = Mst_ghs.run ~spec:cfg.Run.spec cfg.Run.graph in
      outcome ~measures:r.Mst_ghs.measures ~transport:r.Mst_ghs.transport
        ~info:[ ("max_level", string_of_int r.Mst_ghs.max_level) ]
        (Outcome.Spanning_tree r.Mst_ghs.mst))

let mst_fast =
  entry ~name:"mst-fast"
    ~summary:"MST_fast: guess doubling + parallel scans (Section 8.2)"
    ~category:Mst
    ~caps:{ default_caps with needs_root = false }
    ~claimed:[ Claim.comm "E * logn^2"; Claim.time "E * logn^2" ]
    ~invariant:mst_invariant
    (fun cfg ->
      let r = Mst_fast.run ~spec:cfg.Run.spec cfg.Run.graph in
      outcome ~measures:r.Mst_fast.measures ~transport:r.Mst_fast.transport
        ~info:
          [
            ("phases", string_of_int r.Mst_fast.phases);
            ("scan_rounds", string_of_int r.Mst_fast.scan_rounds);
          ]
        (Outcome.Spanning_tree r.Mst_fast.mst))

let mst_hybrid =
  entry ~name:"mst-hybrid"
    ~summary:"MST_hybrid: GHS raced against MST_centr (Section 8.3)"
    ~category:Mst
    ~claimed:
      [
        Claim.comm "min(E + V * logn, n * V)";
        Claim.time "min(E + V * logn, n * V)";
      ]
    ~invariant:mst_invariant
    (fun cfg ->
      let r =
        Mst_hybrid.run ~spec:cfg.Run.spec cfg.Run.graph ~root:cfg.Run.root
      in
      outcome ~measures:r.Mst_hybrid.measures
        ~transport:r.Mst_hybrid.transport
        ~info:
          [
            ( "winner",
              match r.Mst_hybrid.winner with
              | Mst_hybrid.Ghs -> "ghs"
              | Mst_hybrid.Mst_centr -> "mst-centr" );
            ("ghs_demand", string_of_int r.Mst_hybrid.ghs_demand);
            ("centr_estimate", string_of_int r.Mst_hybrid.centr_estimate);
          ]
        (Outcome.Spanning_tree r.Mst_hybrid.mst))

(* ------------------------------------------------------------------ *)
(* Sections 6.4 / 9: shortest-path trees.                              *)
(* ------------------------------------------------------------------ *)

let spt_invariant cfg = on_tree (check_spt cfg.Run.graph ~root:cfg.Run.root)

(* w(SPT) <= n * D, so n * w(SPT) is claimed as n^2 * D. *)
let spt_centr =
  entry ~name:"spt-centr"
    ~summary:"SPT_centr: full-information distributed Dijkstra (Section 6.4)"
    ~category:Spt
    ~claimed:[ Claim.comm "n^2 * D"; Claim.time "n^2 * D" ]
    ~invariant:spt_invariant
    (fun cfg ->
      let r =
        Centr_growth.run_spt ~spec:cfg.Run.spec cfg.Run.graph ~root:cfg.Run.root
      in
      outcome ~measures:r.Centr_growth.measures
        ~transport:r.Centr_growth.transport
        ~info:[ ("phases", string_of_int r.Centr_growth.phases) ]
        (Outcome.Spanning_tree r.Centr_growth.grown_tree))

let spt_synch =
  entry ~name:"spt-synch"
    ~summary:"SPT_synch under the gamma_w synchronizer (Section 9.1)"
    ~category:Spt
    ~claimed:[ Claim.comm "E + D * n * logn"; Claim.time "D * n * logn" ]
    ~invariant:spt_invariant
    (fun cfg ->
      let r =
        Spt_synch.run ~spec:cfg.Run.spec ?k:cfg.Run.k cfg.Run.graph
          ~source:cfg.Run.root
      in
      outcome ~measures:r.Spt_synch.measures ~transport:r.Spt_synch.transport
        ~info:
          [
            ("proto_comm", string_of_int r.Spt_synch.proto_comm);
            ("overhead_comm", string_of_int r.Spt_synch.overhead_comm);
            ( "transformed_pulses",
              string_of_int r.Spt_synch.transformed_pulses );
          ]
        (Outcome.Spanning_tree r.Spt_synch.tree))

let spt_recur =
  entry ~name:"spt-recur"
    ~summary:"SPT_recur: strip-synchronised relaxation (Section 9.2)"
    ~category:Spt
    ~claimed:[ Claim.comm "E^1.5"; Claim.time "E^1.5" ]
    ~invariant:spt_invariant
    (fun cfg ->
      let strip =
        match cfg.Run.strip with
        | Some s -> s
        | None -> Spt_recur.default_strip cfg.Run.graph
      in
      let r =
        Spt_recur.run ~spec:cfg.Run.spec cfg.Run.graph ~source:cfg.Run.root
          ~strip
      in
      outcome ~measures:r.Spt_recur.measures ~transport:r.Spt_recur.transport
        ~info:
          [
            ("strip", string_of_int strip);
            ("strips", string_of_int r.Spt_recur.strips);
            ("offer_comm", string_of_int r.Spt_recur.offer_comm);
            ("sync_comm", string_of_int r.Spt_recur.sync_comm);
          ]
        (Outcome.Spanning_tree r.Spt_recur.tree))

let spt_hybrid =
  entry ~name:"spt-hybrid"
    ~summary:"SPT_hybrid: budgeted dovetail of synch/recur (Section 9.3)"
    ~category:Spt
    ~claimed:
      [
        Claim.comm "min(E^1.5, E + D * n * logn)";
        Claim.time "min(E^1.5, D * n * logn)";
      ]
    ~invariant:spt_invariant
    (fun cfg ->
      let r =
        Spt_hybrid.run ~spec:cfg.Run.spec ?k:cfg.Run.k ?strip:cfg.Run.strip
          cfg.Run.graph ~source:cfg.Run.root
      in
      outcome ~measures:r.Spt_hybrid.winning_measures
        ~transport:r.Spt_hybrid.transport
        ~info:
          [
            ( "winner",
              match r.Spt_hybrid.winner with
              | Spt_hybrid.Synch -> "synch"
              | Spt_hybrid.Recur -> "recur" );
            ("total_comm", string_of_int r.Spt_hybrid.total_comm);
            ("epochs", string_of_int r.Spt_hybrid.epochs);
          ]
        (Outcome.Spanning_tree r.Spt_hybrid.tree))

let spt_async =
  entry ~name:"spt-async"
    ~summary:"asynchronous distance-wave SPT (native Bellman-Ford, Section 9)"
    ~category:Spt
    ~caps:{ default_caps with supports_domains = true }
    ~claimed:
      [
        Claim.comm "n * E";
        Claim.time ~regime:"clean run, delays bounded by weights" "D";
      ]
    ~invariant:spt_invariant
    (fun cfg ->
      let r =
        Spt_async.run ~spec:cfg.Run.spec ?domains:cfg.Run.domains cfg.Run.graph
          ~source:cfg.Run.root
      in
      outcome ~measures:r.Spt_async.measures ~transport:r.Spt_async.transport
        ~info:(domains_info cfg)
        (Outcome.Spanning_tree r.Spt_async.tree))

(* ------------------------------------------------------------------ *)
(* Section 2: shallow-light trees and global functions.                *)
(* ------------------------------------------------------------------ *)

(* The distributed run selects [Slt.build]'s subgraph G' and returns its
   shortest-path tree, so the two trees agree parent for parent; Lemmas
   2.4-2.5 then hold as [Slt.is_shallow_light] states them — for the
   tree's weight and depth, not for each vertex's stretch (the
   breakpoint scan bounds depth by (2q+1)·D, see slt.mli). *)
let slt_invariant cfg =
  let g = cfg.Run.graph in
  on_tree (fun tree ->
      match check_spanning g tree with
      | Error _ as e -> e
      | Ok () -> (
        let slt = Slt.build ?q:cfg.Run.q g ~root:cfg.Run.root in
        match
          first_failure (G.n g) (fun v ->
              if Tree.parent tree v <> Tree.parent slt.Slt.tree v then
                Some
                  (Printf.sprintf
                     "vertex %d: parent differs from Slt.build's tree" v)
              else None)
        with
        | Error _ as e -> e
        | Ok () ->
          let p = Csap_graph.Params.compute g in
          let script_v = p.Csap_graph.Params.script_v
          and script_d = p.Csap_graph.Params.script_d in
          if Slt.is_shallow_light slt ~script_v ~script_d then Ok ()
          else
            Error
              (Printf.sprintf
                 "tree weight %d / height %d exceed the shallow-light \
                  bounds (q=%g, V=%d, D=%d)"
                 (Tree.total_weight tree) (Tree.height tree) slt.Slt.q
                 script_v script_d)))

let slt_dist =
  entry ~name:"slt-dist"
    ~summary:"distributed shallow-light tree (Theorem 2.7)"
    ~category:Slt
    ~claimed:[ Claim.comm "n^2 * V"; Claim.time "n^2 * D" ]
    ~invariant:slt_invariant
    (fun cfg ->
      let r =
        Slt_distributed.run ~spec:cfg.Run.spec ?q:cfg.Run.q cfg.Run.graph
          ~root:cfg.Run.root
      in
      outcome ~measures:r.Slt_distributed.measures
        ~transport:r.Slt_distributed.transport
        ~info:[ ("q", string_of_float r.Slt_distributed.q) ]
        (Outcome.Spanning_tree r.Slt_distributed.tree))

(* Convergecast + broadcast over a locally built SLT: the tree weight is
   O(V) and its depth O(D). *)
let global_sum =
  entry ~name:"global-sum"
    ~summary:"global sum on a shallow-light tree (Corollary 2.3)"
    ~category:Global
    ~claimed:[ Claim.comm "8 * V + 8 * D"; Claim.time "4 * D" ]
    ~invariant:(fun cfg (o : Outcome.t) ->
      match o.Outcome.payload with
      | Outcome.Outputs outputs ->
        let n = G.n cfg.Run.graph in
        let expected = n * (n - 1) / 2 in
        if Array.for_all (fun x -> x = expected) outputs then Ok ()
        else Error (Printf.sprintf "some output differs from %d" expected)
      | _ -> Error "unexpected payload")
    (fun cfg ->
      let g = cfg.Run.graph in
      let values = Array.init (G.n g) (fun v -> v) in
      let r =
        Global_func.run_optimal ~spec:cfg.Run.spec ?q:cfg.Run.q g
          ~root:cfg.Run.root ~values Global_func.sum
      in
      outcome ~measures:r.Global_func.measures
        ~transport:r.Global_func.transport
        (Outcome.Outputs r.Global_func.outputs))

(* ------------------------------------------------------------------ *)
(* Section 3: clock synchronization.                                   *)
(* ------------------------------------------------------------------ *)

let clock_invariant cfg (o : Outcome.t) =
  match o.Outcome.payload with
  | Outcome.Clock_pulses r ->
    if Clock_sync.check_causality cfg.Run.graph r then Ok ()
    else Error "causality violated: pulse p before a neighbour's pulse p-1"
  | _ -> Error "unexpected payload"

(* The clock entries differ only in the synchronizer they run and its
   claims; the pulse count is fixed, so each per-pulse cost of Section 3
   is claimed with the pulse count absorbed into the constant. *)
let clock ~name ~summary ~comm ~time (run_sync : ?spec:_ -> _) =
  let fixed = "per fixed pulse count" in
  entry ~name ~summary ~category:Clock
    ~caps:{ default_caps with needs_root = false }
    ~claimed:[ Claim.comm ~regime:fixed comm; Claim.time ~regime:fixed time ]
    ~invariant:clock_invariant
    (fun cfg ->
      let r : Clock_sync.result =
        run_sync ~spec:cfg.Run.spec cfg.Run.graph
          ~pulses:(Option.value cfg.Run.pulses ~default:6)
      in
      outcome ~measures:r.Clock_sync.measures
        ~transport:r.Clock_sync.transport
        ~info:
          [
            ("pulses", string_of_int r.Clock_sync.pulses);
            ("max_pulse_delay", string_of_float r.Clock_sync.max_pulse_delay);
            ("comm_per_pulse", string_of_float r.Clock_sync.comm_per_pulse);
          ]
        (Outcome.Clock_pulses r))

let clock_alpha =
  clock ~name:"clock-alpha"
    ~summary:"clock synchronizer alpha*: direct exchange (Section 3)"
    ~comm:"E" ~time:"D + d" Clock_sync.run_alpha

let clock_beta =
  clock ~name:"clock-beta"
    ~summary:"clock synchronizer beta*: one global tree (Section 3)"
    ~comm:"E + V" ~time:"D" Clock_sync.run_beta

let clock_gamma =
  clock ~name:"clock-gamma"
    ~summary:"clock synchronizer gamma*: tree edge-cover (Section 3)"
    ~comm:"E + V * logn" ~time:"D + d * logn^2"
    (Clock_sync.run_gamma ?neighbor_phase:None)

(* ------------------------------------------------------------------ *)
(* Section 4/5: general synchronizers over the SPT wave protocol.      *)
(* ------------------------------------------------------------------ *)

let sync_pulses cfg =
  match cfg.Run.pulses with
  | Some p -> p
  | None -> Csap_graph.Paths.eccentricity cfg.Run.graph cfg.Run.root + 1

(* [states] are the wave's final states: [o.states] for alpha_w and
   beta_w, extracted from the normalized network's for gamma_w, whose
   [amortized_comm] is per transformed pulse and so not reported. *)
let sync_outcome ~source ~pulses ~amortized states
    (o : (_, _) Synchronizer.outcome) =
  outcome ~measures:o.Synchronizer.total ~transport:o.Synchronizer.transport
    ~info:
      ([
         ("ack_comm", string_of_int o.Synchronizer.ack_comm);
         ("control_comm", string_of_int o.Synchronizer.control_comm);
       ]
      @
      if amortized then
        [ ("amortized_comm", string_of_float o.Synchronizer.amortized_comm) ]
      else [])
    (Outcome.Sync_states
       { source; states; pulses; proto_comm = o.Synchronizer.proto_comm })

(* [comm]: also compare the protocol's communication with the reference
   on clean runs (gamma_w's is measured on the normalized network, so
   only its states are comparable). *)
let sync_invariant ~comm cfg (o : Outcome.t) =
  match o.Outcome.payload with
  | Outcome.Sync_states { source; states; pulses; proto_comm } ->
    let reference =
      Csap_dsim.Sync_runner.run cfg.Run.graph
        (Spt_synch.protocol ~source)
        ~pulses
    in
    if states <> reference.Csap_dsim.Sync_runner.states then
      Error "states differ from the synchronous reference execution"
    else if
      comm && clean cfg
      && proto_comm <> reference.Csap_dsim.Sync_runner.weighted_comm
    then
      Error
        (Printf.sprintf
           "protocol communication %d <> synchronous reference %d" proto_comm
           reference.Csap_dsim.Sync_runner.weighted_comm)
    else Ok ()
  | _ -> Error "unexpected payload"

(* alpha_w and beta_w run the wave directly, so their states are the
   outcome's own. *)
let direct_sync ~name ~summary ~claimed (run_sync : ?spec:_ -> _) =
  entry ~name ~summary ~category:Synchronizer ~claimed
    ~invariant:(sync_invariant ~comm:true)
    (fun cfg ->
      let source = cfg.Run.root and pulses = sync_pulses cfg in
      let o =
        run_sync ~spec:cfg.Run.spec cfg.Run.graph
          (Spt_synch.protocol ~source)
          ~pulses
      in
      sync_outcome ~source ~pulses ~amortized:true o.Synchronizer.states o)

(* The wave runs for O(D) pulses; alpha_w pays O(E) per pulse and O(d)
   time per pulse. *)
let sync_alpha =
  direct_sync ~name:"sync-alpha"
    ~summary:"synchronizer alpha_w running the SPT wave (Section 4)"
    ~claimed:[ Claim.comm "D * E"; Claim.time "D * d" ]
    Synchronizer.run_alpha

let sync_beta =
  direct_sync ~name:"sync-beta"
    ~summary:"synchronizer beta_w running the SPT wave (Section 4)"
    ~claimed:[ Claim.comm "E + D * V"; Claim.time "D^2" ]
    Synchronizer.run_beta

let sync_gamma =
  entry ~name:"sync-gamma-w"
    ~summary:"synchronizer gamma_w over the normalized network (Sections 4-5)"
    ~category:Synchronizer
    ~claimed:[ Claim.comm "E + D * n * logn"; Claim.time "D^2 * logn" ]
    ~invariant:(sync_invariant ~comm:false)
    (fun cfg ->
      let source = cfg.Run.root and pulses = sync_pulses cfg in
      let states, o =
        Synchronizer.run_transformed ~spec:cfg.Run.spec ?k:cfg.Run.k
          cfg.Run.graph
          (Spt_synch.protocol ~source)
          ~pulses
      in
      sync_outcome ~source ~pulses ~amortized:false states o)

(* ------------------------------------------------------------------ *)
(* Section 7.1: the lower-bound family.                                *)
(* ------------------------------------------------------------------ *)

(* The run ignores [cfg.graph]'s topology: G_n is rebuilt from its size
   parameters ([fixed_family]), so the run takes no fault plan or shim.
   It also ignores the spec's delay model (the hybrid's comm bound is
   schedule-free), so an adaptive adversary would never be consulted:
   reject it rather than silently ignore it.

   The hybrid's communication on G_n: it spends at most twice the
   cheaper branch, whose own constants differ (DFS ~ 4E, MST_centr
   ~ nV) — so the min's arms carry their constants, or the fit sees a
   phantom slope through the crossover. The run reports no meaningful
   completion time, so no time claim. *)
let lower_bound_gn =
  entry ~name:"lower-bound-gn"
    ~summary:"executable Omega(min{E, nV}) witness on G_n (Section 7.1)"
    ~category:Bound
    ~caps:
      {
        default_caps with
        needs_root = false;
        fixed_family = true;
        supports_adaptive = false;
      }
    ~claimed:[ Claim.comm ~regime:"the G_n(x) family" "min(8 * E, 2 * n * V)" ]
    ~invariant:(fun _cfg (o : Outcome.t) ->
      match o.Outcome.payload with
      | Outcome.Gn_bounds r ->
        let gn =
          Csap_graph.Generators.lower_bound_gn r.Lower_bound.n
            ~x:r.Lower_bound.x
        in
        if r.Lower_bound.script_e <> G.total_weight gn then
          Error "script-E does not match the generated family"
        else if
          r.Lower_bound.n_times_v
          <> r.Lower_bound.n * Csap_graph.Mst.weight gn
        then Error "n x script-V does not match the generated family"
        else if
          r.Lower_bound.flood_comm <= 0
          || r.Lower_bound.dfs_comm <= 0
          || r.Lower_bound.hybrid_comm <= 0
        then Error "a protocol reported zero communication"
        else if r.Lower_bound.flood_comm > 2 * r.Lower_bound.script_e then
          Error "flood exceeded 2 script-E"
        else Ok ()
      | _ -> Error "unexpected payload")
    (fun cfg ->
      let n, x = Lower_bound.gn_params cfg.Run.graph in
      let r = Lower_bound.run_on_gn ~n ~x in
      outcome
        ~measures:
          {
            Measures.comm = r.Lower_bound.hybrid_comm;
            time = 0.0;
            messages = 0;
          }
        ~info:
          [
            ("n", string_of_int r.Lower_bound.n);
            ("x", string_of_int r.Lower_bound.x);
            ("script_e", string_of_int r.Lower_bound.script_e);
            ("n_times_v", string_of_int r.Lower_bound.n_times_v);
            ("flood_comm", string_of_int r.Lower_bound.flood_comm);
            ("dfs_comm", string_of_int r.Lower_bound.dfs_comm);
            ("hybrid_comm", string_of_int r.Lower_bound.hybrid_comm);
          ]
        (Outcome.Gn_bounds r))

(* ------------------------------------------------------------------ *)
(* The registry.                                                       *)
(* ------------------------------------------------------------------ *)

let registry : entry list =
  [
    flood; dfs_token; con_hybrid; mst_centr; mst_ghs; mst_fast; mst_hybrid;
    spt_centr; spt_synch; spt_recur; spt_hybrid; spt_async; slt_dist;
    global_sum; clock_alpha; clock_beta; clock_gamma; sync_alpha; sync_beta;
    sync_gamma; lower_bound_gn;
  ]

let names () = List.map (fun (module P : S) -> P.name) registry

let find name =
  List.find_opt (fun (module P : S) -> P.name = name) registry

let find_exn name =
  match find name with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Protocol.find_exn: unknown protocol %S" name)

(* Capability rejections name the offending knob — "<name>: <knob>:
   <reason>" — uniformly, so a farm cell or CLI user can map the error
   straight back to the flag that caused it. *)
let reject_knob name ~knob reason =
  invalid_arg (Printf.sprintf "%s: %s: %s" name knob reason)

let adaptive_of cfg =
  match cfg.Run.spec.Net.delay with Delay.Adaptive _ -> true | _ -> false

let validate (module P : S) cfg =
  if P.caps.needs_root then G.check_root P.name cfg.Run.graph cfg.Run.root;
  (* Every graph protocol runs over [Net.make], so only an entry that
     rebuilds its own family has no transport to fault or shim. *)
  let { Net.delay; faults; reliable } = cfg.Run.spec in
  if P.caps.fixed_family then begin
    if faults <> None then
      invalid_arg (P.name ^ ": fault plans not supported");
    if reliable then
      invalid_arg (P.name ^ ": reliable transport not supported")
  end;
  if adaptive_of cfg && not P.caps.supports_adaptive then
    reject_knob P.name ~knob:"adversary" "adaptive adversaries not supported";
  match cfg.Run.domains with
  | None -> ()
  | Some d ->
    if d < 1 then
      invalid_arg (Printf.sprintf "%s: domains %d < 1" P.name d);
    if d > 1 then begin
      if not P.caps.supports_domains then
        reject_knob P.name ~knob:"domains"
          "partitioned execution not supported";
      if faults <> None || reliable then
        reject_knob P.name ~knob:"domains"
          "partitioned execution excludes faults/reliable transport";
      if cfg.Run.trace <> None then
        reject_knob P.name ~knob:"domains"
          "partitioned execution cannot record traces";
      if adaptive_of cfg then
        reject_knob P.name ~knob:"adversary"
          "partitioned execution requires an oblivious (order-independent) \
           adversary";
      if not (Delay.order_independent delay) then
        reject_knob P.name ~knob:"domains"
          "partitioned execution requires an order-independent delay model"
    end

let execute ((module P : S) as entry) cfg =
  validate entry cfg;
  match cfg.Run.trace with
  | None -> P.run cfg
  | Some prefix ->
    let o, traces = Csap_dsim.Trace.with_collector (fun () -> P.run cfg) in
    List.iteri
      (fun i tr ->
        Csap_dsim.Trace.save_jsonl tr
          (Printf.sprintf "%s--%s--%d.jsonl" prefix P.name i))
      traces;
    o
