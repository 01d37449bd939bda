module G = Csap_graph.Graph
module Tree = Csap_graph.Tree
module Delay = Csap_dsim.Delay
module Net = Csap_dsim.Net

module Run = struct
  type cfg = {
    graph : G.t;
    root : int;
    delay : Delay.t option;
    adversary : Csap_dsim.Adversary.t option;
    faults : Csap_dsim.Fault.plan option;
    reliable : bool;
    trace : string option;
    pulses : int option;
    strip : int option;
    k : int option;
    q : float option;
    domains : int option;
  }

  let make ?(root = 0) ?delay ?adversary ?faults ?(reliable = false) ?trace
      ?pulses ?strip ?k ?q ?domains graph =
    { graph; root; delay; adversary; faults; reliable; trace; pulses; strip;
      k; q; domains }

  let delay cfg = Option.value cfg.delay ~default:Delay.Exact
end

module Outcome = struct
  type payload = ..

  type payload +=
    | No_payload
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
  supports_faults : bool;
  supports_reliable : bool;
  synchronous_only : bool;
  fixed_family : bool;
  supports_domains : bool;
  supports_adaptive : bool;
}

let default_caps =
  {
    needs_root = true;
    supports_faults = true;
    supports_reliable = true;
    synchronous_only = false;
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

let stats_of (s : Net.stats) =
  (s.Net.retransmissions, s.Net.restarts)

let clean cfg = cfg.Run.faults = None && not cfg.Run.reliable

(* True when the run's schedule is the deterministic exact-delay default.
   An adversary — even an oblivious one still sitting unfolded in the
   cfg — means the schedule is something else. *)
let exact_delay cfg =
  cfg.Run.adversary = None
  && match cfg.Run.delay with None | Some Delay.Exact -> true | _ -> false

let check_spanning g tree =
  if Tree.is_spanning_tree_of g tree then Ok ()
  else Error "not a spanning tree of the graph"

let check_mst g tree =
  match check_spanning g tree with
  | Error _ as e -> e
  | Ok () ->
    if Csap_graph.Mst.is_mst g tree then Ok ()
    else Error "spanning tree is not an MST"

(* Path distance from the root inside [tree] must equal the true
   shortest-path distance for every vertex. *)
let check_spt g ~root tree =
  match check_spanning g tree with
  | Error _ as e -> e
  | Ok () ->
    let sssp = Csap_graph.Paths.dijkstra g ~src:root in
    let ok = ref (Ok ()) in
    for v = 0 to G.n g - 1 do
      if !ok = Ok () then begin
        let d = ref 0 and u = ref v in
        let continue = ref true in
        while !continue do
          match Tree.parent tree !u with
          | Some (p, w) ->
            d := !d + w;
            u := p
          | None -> continue := false
        done;
        if !d <> sssp.Csap_graph.Paths.dist.(v) then
          ok :=
            Error
              (Printf.sprintf
                 "vertex %d: tree distance %d <> shortest distance %d" v !d
                 sssp.Csap_graph.Paths.dist.(v))
      end
    done;
    !ok

(* The partitioned entries record the domain count they ran on. *)
let domains_info cfg =
  match cfg.Run.domains with
  | Some d when d > 1 -> [ ("domains", string_of_int d) ]
  | _ -> []

let outcome ~name ~measures ?(transport = Net.no_stats) ?(info = []) payload =
  let retransmissions, restarts = stats_of transport in
  { Outcome.protocol = name; measures; retransmissions; restarts; payload;
    info }

(* ------------------------------------------------------------------ *)
(* Section 6/7: connectivity.                                          *)
(* ------------------------------------------------------------------ *)

module Flood_p = struct
  let name = "flood"
  let summary = "CON_flood: spanning tree by flooding (Section 6.1)"
  let category = Connectivity
  let caps = { default_caps with supports_domains = true }

  let claimed =
    [
      Claim.comm "2 * E";
      Claim.time ~regime:"clean run, delays bounded by weights" "D";
    ]

  let run cfg =
    let r =
      Flood.run ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable ?domains:cfg.Run.domains cfg.Run.graph
        ~source:cfg.Run.root
    in
    outcome ~name ~measures:r.Flood.measures ~transport:r.Flood.transport
      ~info:(domains_info cfg)
      (Outcome.Flood_wave { tree = r.Flood.tree; arrival = r.Flood.arrival })

  let invariant cfg (o : Outcome.t) =
    match o.Outcome.payload with
    | Outcome.Flood_wave { tree; arrival } -> (
      match check_spanning cfg.Run.graph tree with
      | Error _ as e -> e
      | Ok () ->
        if clean cfg then begin
          (* Delays never exceed weights, so no schedule can make the
             wave slower than the weighted shortest path; under exact
             delays it arrives exactly on it. *)
          let sssp =
            Csap_graph.Paths.dijkstra cfg.Run.graph ~src:cfg.Run.root
          in
          let exact = exact_delay cfg in
          let ok = ref (Ok ()) in
          Array.iteri
            (fun v t ->
              let d = float_of_int sssp.Csap_graph.Paths.dist.(v) in
              if
                !ok = Ok ()
                && (t > d +. 1e-9 || (exact && t < d -. 1e-9))
              then
                ok :=
                  Error
                    (Printf.sprintf
                       "vertex %d: arrival %g vs shortest distance %g" v t d))
            arrival;
          !ok
        end
        else Ok ())
    | _ -> Error "unexpected payload"
end

module Dfs_p = struct
  let name = "dfs-token"
  let summary = "token DFS with root/centre cost estimates (Section 6.2)"
  let category = Connectivity
  let caps = default_caps
  let claimed = [ Claim.comm "4 * E"; Claim.time "4 * E" ]
  let run cfg =
    let r =
      Dfs_token.run ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable cfg.Run.graph ~root:cfg.Run.root
    in
    outcome ~name ~measures:r.Dfs_token.measures
      ~transport:r.Dfs_token.transport
      (Outcome.Dfs_walk
         {
           tree = r.Dfs_token.dfs_tree;
           est_c = r.Dfs_token.final_center_estimate;
           est_r = r.Dfs_token.final_root_estimate;
         })

  let invariant cfg (o : Outcome.t) =
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
    | _ -> Error "unexpected payload"
end

module Con_hybrid_p = struct
  let name = "con-hybrid"
  let summary = "CON_hybrid: DFS raced against MST_centr (Section 7.2)"
  let category = Connectivity
  let caps = default_caps

  let claimed =
    [ Claim.comm "min(E, n * V)"; Claim.time "min(E, n * V)" ]

  let run cfg =
    let r =
      Con_hybrid.run ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable cfg.Run.graph ~root:cfg.Run.root
    in
    outcome ~name ~measures:r.Con_hybrid.measures
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
      (Outcome.Spanning_tree r.Con_hybrid.spanning_tree)

  let invariant cfg (o : Outcome.t) =
    match Outcome.tree o with
    | Some tree -> check_spanning cfg.Run.graph tree
    | None -> Error "unexpected payload"
end

(* ------------------------------------------------------------------ *)
(* Sections 6.3 / 8: minimum spanning trees.                           *)
(* ------------------------------------------------------------------ *)

let mst_invariant cfg (o : Outcome.t) =
  match Outcome.tree o with
  | Some tree -> check_mst cfg.Run.graph tree
  | None -> Error "unexpected payload"

module Mst_centr_p = struct
  let name = "mst-centr"
  let summary = "MST_centr: full-information distributed Prim (Section 6.3)"
  let category = Mst
  let caps = default_caps
  let claimed = [ Claim.comm "n * V"; Claim.time "n * V" ]
  let run cfg =
    let r =
      Centr_growth.run_mst ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable cfg.Run.graph ~root:cfg.Run.root
    in
    outcome ~name ~measures:r.Centr_growth.measures
      ~transport:r.Centr_growth.transport
      ~info:[ ("phases", string_of_int r.Centr_growth.phases) ]
      (Outcome.Spanning_tree r.Centr_growth.grown_tree)

  let invariant = mst_invariant
end

module Mst_ghs_p = struct
  let name = "mst-ghs"
  let summary = "GHS minimum spanning tree (the Section 8 baseline)"
  let category = Mst
  let caps = { default_caps with needs_root = false }

  let claimed =
    [ Claim.comm "E + V * logn"; Claim.time "E + V * logn" ]

  let run cfg =
    let r =
      Mst_ghs.run ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable cfg.Run.graph
    in
    outcome ~name ~measures:r.Mst_ghs.measures ~transport:r.Mst_ghs.transport
      ~info:[ ("max_level", string_of_int r.Mst_ghs.max_level) ]
      (Outcome.Spanning_tree r.Mst_ghs.mst)

  let invariant = mst_invariant
end

module Mst_fast_p = struct
  let name = "mst-fast"
  let summary = "MST_fast: guess doubling + parallel scans (Section 8.2)"
  let category = Mst
  let caps = { default_caps with needs_root = false }

  let claimed =
    [ Claim.comm "E * logn^2"; Claim.time "E * logn^2" ]

  let run cfg =
    let r =
      Mst_fast.run ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable cfg.Run.graph
    in
    outcome ~name ~measures:r.Mst_fast.measures ~transport:r.Mst_fast.transport
      ~info:
        [
          ("phases", string_of_int r.Mst_fast.phases);
          ("scan_rounds", string_of_int r.Mst_fast.scan_rounds);
        ]
      (Outcome.Spanning_tree r.Mst_fast.mst)

  let invariant = mst_invariant
end

module Mst_hybrid_p = struct
  let name = "mst-hybrid"
  let summary = "MST_hybrid: GHS raced against MST_centr (Section 8.3)"
  let category = Mst

  let caps =
    { default_caps with supports_faults = false; supports_reliable = false }

  let claimed =
    [
      Claim.comm "min(E + V * logn, n * V)";
      Claim.time "min(E + V * logn, n * V)";
    ]

  let run cfg =
    let r =
      Mst_hybrid.run ?delay:cfg.Run.delay cfg.Run.graph ~root:cfg.Run.root
    in
    outcome ~name ~measures:r.Mst_hybrid.measures
      ~info:
        [
          ( "winner",
            match r.Mst_hybrid.winner with
            | Mst_hybrid.Ghs -> "ghs"
            | Mst_hybrid.Mst_centr -> "mst-centr" );
          ("ghs_demand", string_of_int r.Mst_hybrid.ghs_demand);
          ("centr_estimate", string_of_int r.Mst_hybrid.centr_estimate);
        ]
      (Outcome.Spanning_tree r.Mst_hybrid.mst)

  let invariant = mst_invariant
end

(* ------------------------------------------------------------------ *)
(* Sections 6.4 / 9: shortest-path trees.                              *)
(* ------------------------------------------------------------------ *)

let spt_invariant cfg (o : Outcome.t) =
  match Outcome.tree o with
  | Some tree -> check_spt cfg.Run.graph ~root:cfg.Run.root tree
  | None -> Error "unexpected payload"

module Spt_centr_p = struct
  let name = "spt-centr"
  let summary =
    "SPT_centr: full-information distributed Dijkstra (Section 6.4)"

  let category = Spt
  let caps = default_caps

  (* w(SPT) <= n * D, so n * w(SPT) is claimed as n^2 * D. *)
  let claimed = [ Claim.comm "n^2 * D"; Claim.time "n^2 * D" ]
  let run cfg =
    let r =
      Centr_growth.run_spt ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable cfg.Run.graph ~root:cfg.Run.root
    in
    outcome ~name ~measures:r.Centr_growth.measures
      ~transport:r.Centr_growth.transport
      ~info:[ ("phases", string_of_int r.Centr_growth.phases) ]
      (Outcome.Spanning_tree r.Centr_growth.grown_tree)

  let invariant = spt_invariant
end

module Spt_synch_p = struct
  let name = "spt-synch"
  let summary = "SPT_synch under the gamma_w synchronizer (Section 9.1)"
  let category = Spt
  let caps = default_caps

  let claimed =
    [
      Claim.comm "E + D * n * logn";
      Claim.time "D * n * logn";
    ]

  let run cfg =
    let r =
      Spt_synch.run ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable ?k:cfg.Run.k cfg.Run.graph
        ~source:cfg.Run.root
    in
    outcome ~name ~measures:r.Spt_synch.measures
      ~transport:r.Spt_synch.transport
      ~info:
        [
          ("proto_comm", string_of_int r.Spt_synch.proto_comm);
          ("overhead_comm", string_of_int r.Spt_synch.overhead_comm);
          ("transformed_pulses", string_of_int r.Spt_synch.transformed_pulses);
        ]
      (Outcome.Spanning_tree r.Spt_synch.tree)

  let invariant = spt_invariant
end

module Spt_recur_p = struct
  let name = "spt-recur"
  let summary = "SPT_recur: strip-synchronised relaxation (Section 9.2)"
  let category = Spt
  let caps = default_caps
  let claimed = [ Claim.comm "E^1.5"; Claim.time "E^1.5" ]
  let run cfg =
    let strip =
      match cfg.Run.strip with
      | Some s -> s
      | None -> Spt_recur.default_strip cfg.Run.graph
    in
    let r =
      Spt_recur.run ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable cfg.Run.graph ~source:cfg.Run.root ~strip
    in
    outcome ~name ~measures:r.Spt_recur.measures
      ~transport:r.Spt_recur.transport
      ~info:
        [
          ("strip", string_of_int strip);
          ("strips", string_of_int r.Spt_recur.strips);
          ("offer_comm", string_of_int r.Spt_recur.offer_comm);
          ("sync_comm", string_of_int r.Spt_recur.sync_comm);
        ]
      (Outcome.Spanning_tree r.Spt_recur.tree)

  let invariant = spt_invariant
end

module Spt_hybrid_p = struct
  let name = "spt-hybrid"
  let summary = "SPT_hybrid: budgeted dovetail of synch/recur (Section 9.3)"
  let category = Spt
  let caps = default_caps

  let claimed =
    [
      Claim.comm "min(E^1.5, E + D * n * logn)";
      Claim.time "min(E^1.5, D * n * logn)";
    ]

  let run cfg =
    let r =
      Spt_hybrid.run ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable ?k:cfg.Run.k ?strip:cfg.Run.strip
        cfg.Run.graph ~source:cfg.Run.root
    in
    outcome ~name ~measures:r.Spt_hybrid.winning_measures
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
      (Outcome.Spanning_tree r.Spt_hybrid.tree)

  let invariant = spt_invariant
end

module Spt_async_p = struct
  let name = "spt-async"
  let summary =
    "asynchronous distance-wave SPT (native Bellman-Ford, Section 9)"

  let category = Spt

  let caps =
    {
      default_caps with
      supports_faults = false;
      supports_reliable = false;
      supports_domains = true;
    }

  let claimed =
    [
      Claim.comm "n * E";
      Claim.time ~regime:"clean run, delays bounded by weights" "D";
    ]

  let run cfg =
    let r =
      Spt_async.run ?delay:cfg.Run.delay ?domains:cfg.Run.domains
        cfg.Run.graph ~source:cfg.Run.root
    in
    outcome ~name ~measures:r.Spt_async.measures ~info:(domains_info cfg)
      (Outcome.Spanning_tree r.Spt_async.tree)

  let invariant = spt_invariant
end

(* ------------------------------------------------------------------ *)
(* Section 2: shallow-light trees and global functions.                *)
(* ------------------------------------------------------------------ *)

module Slt_dist_p = struct
  let name = "slt-dist"
  let summary = "distributed shallow-light tree (Theorem 2.7)"
  let category = Slt
  let caps = default_caps
  let claimed = [ Claim.comm "n^2 * V"; Claim.time "n^2 * D" ]
  let run cfg =
    let r =
      Slt_distributed.run ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable ?q:cfg.Run.q cfg.Run.graph
        ~root:cfg.Run.root
    in
    outcome ~name ~measures:r.Slt_distributed.measures
      ~transport:r.Slt_distributed.transport
      ~info:[ ("q", string_of_float r.Slt_distributed.q) ]
      (Outcome.Spanning_tree r.Slt_distributed.tree)

  let invariant cfg (o : Outcome.t) =
    match Outcome.tree o with
    | None -> Error "unexpected payload"
    | Some tree -> (
      match check_spanning cfg.Run.graph tree with
      | Error _ as e -> e
      | Ok () ->
        let g = cfg.Run.graph in
        let q = Option.value cfg.Run.q ~default:2.0 in
        let sssp = Csap_graph.Paths.dijkstra g ~src:cfg.Run.root in
        let shallow = ref (Ok ()) in
        for v = 0 to G.n g - 1 do
          if !shallow = Ok () then begin
            let d = Tree.path_weight tree cfg.Run.root v in
            if
              float_of_int d
              > (q *. float_of_int sssp.Csap_graph.Paths.dist.(v)) +. 1e-9
            then
              shallow :=
                Error
                  (Printf.sprintf
                     "vertex %d: tree distance %d exceeds %g x %d" v d q
                     sssp.Csap_graph.Paths.dist.(v))
          end
        done;
        (match !shallow with
        | Error _ as e -> e
        | Ok () ->
          if q > 1.0 then begin
            let bound =
              (1.0 +. (2.0 /. (q -. 1.0)))
              *. float_of_int (Csap_graph.Mst.weight g)
            in
            if float_of_int (Tree.total_weight tree) > bound +. 1e-9 then
              Error
                (Printf.sprintf "tree weight %d exceeds lightness bound %g"
                   (Tree.total_weight tree) bound)
            else Ok ()
          end
          else Ok ()))
end

module Global_sum_p = struct
  let name = "global-sum"
  let summary = "global sum on a shallow-light tree (Corollary 2.3)"
  let category = Global
  let caps = default_caps

  (* Convergecast + broadcast over a locally built SLT: the tree
     weight is O(V) and its depth O(D). *)
  let claimed = [ Claim.comm "8 * V + 8 * D"; Claim.time "4 * D" ]
  let run cfg =
    let g = cfg.Run.graph in
    let values = Array.init (G.n g) (fun v -> v) in
    let r =
      Global_func.run_optimal ?delay:cfg.Run.delay ?faults:cfg.Run.faults
        ~reliable:cfg.Run.reliable ?q:cfg.Run.q g ~root:cfg.Run.root ~values
        Global_func.sum
    in
    outcome ~name ~measures:r.Global_func.measures
      ~transport:r.Global_func.transport
      (Outcome.Outputs r.Global_func.outputs)

  let invariant cfg (o : Outcome.t) =
    match o.Outcome.payload with
    | Outcome.Outputs outputs ->
      let n = G.n cfg.Run.graph in
      let expected = n * (n - 1) / 2 in
      if Array.for_all (fun x -> x = expected) outputs then Ok ()
      else Error (Printf.sprintf "some output differs from %d" expected)
    | _ -> Error "unexpected payload"
end

(* ------------------------------------------------------------------ *)
(* Section 3: clock synchronization.                                   *)
(* ------------------------------------------------------------------ *)

let clock_pulses cfg = Option.value cfg.Run.pulses ~default:6

let clock_invariant cfg (o : Outcome.t) =
  match o.Outcome.payload with
  | Outcome.Clock_pulses r ->
    if Clock_sync.check_causality cfg.Run.graph r then Ok ()
    else Error "causality violated: pulse p before a neighbour's pulse p-1"
  | _ -> Error "unexpected payload"

let clock_outcome ~name (r : Clock_sync.result) =
  outcome ~name ~measures:r.Clock_sync.measures
    ~transport:r.Clock_sync.transport
    ~info:
      [
        ("pulses", string_of_int r.Clock_sync.pulses);
        ("max_pulse_delay", string_of_float r.Clock_sync.max_pulse_delay);
        ("comm_per_pulse", string_of_float r.Clock_sync.comm_per_pulse);
      ]
    (Outcome.Clock_pulses r)

module Clock_alpha_p = struct
  let name = "clock-alpha"
  let summary = "clock synchronizer alpha*: direct exchange (Section 3)"
  let category = Clock
  let caps = { default_caps with needs_root = false }

  (* Fixed pulse count: the per-pulse costs of Section 3 with the
     pulse count absorbed into the constant. *)
  let claimed =
    [ Claim.comm ~regime:"per fixed pulse count" "E";
      Claim.time ~regime:"per fixed pulse count" "D + d" ]

  let run cfg =
    clock_outcome ~name
      (Clock_sync.run_alpha ?delay:cfg.Run.delay ?faults:cfg.Run.faults
         ~reliable:cfg.Run.reliable cfg.Run.graph ~pulses:(clock_pulses cfg))

  let invariant = clock_invariant
end

module Clock_beta_p = struct
  let name = "clock-beta"
  let summary = "clock synchronizer beta*: one global tree (Section 3)"
  let category = Clock
  let caps = { default_caps with needs_root = false }

  let claimed =
    [ Claim.comm ~regime:"per fixed pulse count" "E + V";
      Claim.time ~regime:"per fixed pulse count" "D" ]

  let run cfg =
    clock_outcome ~name
      (Clock_sync.run_beta ?delay:cfg.Run.delay ?faults:cfg.Run.faults
         ~reliable:cfg.Run.reliable cfg.Run.graph ~pulses:(clock_pulses cfg))

  let invariant = clock_invariant
end

module Clock_gamma_p = struct
  let name = "clock-gamma"
  let summary = "clock synchronizer gamma*: tree edge-cover (Section 3)"
  let category = Clock
  let caps = { default_caps with needs_root = false }

  let claimed =
    [ Claim.comm ~regime:"per fixed pulse count" "E + V * logn";
      Claim.time ~regime:"per fixed pulse count" "D + d * logn^2" ]

  let run cfg =
    clock_outcome ~name
      (Clock_sync.run_gamma ?delay:cfg.Run.delay ?faults:cfg.Run.faults
         ~reliable:cfg.Run.reliable cfg.Run.graph ~pulses:(clock_pulses cfg))

  let invariant = clock_invariant
end

(* ------------------------------------------------------------------ *)
(* Section 4/5: general synchronizers over the SPT wave protocol.      *)
(* ------------------------------------------------------------------ *)

let sync_pulses cfg =
  match cfg.Run.pulses with
  | Some p -> p
  | None -> Csap_graph.Paths.eccentricity cfg.Run.graph cfg.Run.root + 1

let sync_outcome ~name ~source ~pulses
    (o : (Spt_synch.state, int) Synchronizer.outcome) =
  outcome ~name ~measures:o.Synchronizer.total
    ~transport:
      {
        Net.retransmissions = o.Synchronizer.retransmissions;
        restarts = 0;
      }
    ~info:
      [
        ("ack_comm", string_of_int o.Synchronizer.ack_comm);
        ("control_comm", string_of_int o.Synchronizer.control_comm);
        ("amortized_comm", string_of_float o.Synchronizer.amortized_comm);
      ]
    (Outcome.Sync_states
       {
         source;
         states = o.Synchronizer.states;
         pulses;
         proto_comm = o.Synchronizer.proto_comm;
       })

let sync_invariant cfg (o : Outcome.t) =
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
      clean cfg
      && proto_comm <> reference.Csap_dsim.Sync_runner.weighted_comm
    then
      Error
        (Printf.sprintf
           "protocol communication %d <> synchronous reference %d" proto_comm
           reference.Csap_dsim.Sync_runner.weighted_comm)
    else Ok ()
  | _ -> Error "unexpected payload"

module Sync_alpha_p = struct
  let name = "sync-alpha"
  let summary = "synchronizer alpha_w running the SPT wave (Section 4)"
  let category = Synchronizer
  let caps = { default_caps with synchronous_only = true }

  (* The wave runs for O(D) pulses; alpha_w pays O(E) per pulse and
     O(d) time per pulse. *)
  let claimed = [ Claim.comm "D * E"; Claim.time "D * d" ]
  let run cfg =
    let source = cfg.Run.root and pulses = sync_pulses cfg in
    sync_outcome ~name ~source ~pulses
      (Synchronizer.run_alpha ?delay:cfg.Run.delay ?faults:cfg.Run.faults
         ~reliable:cfg.Run.reliable cfg.Run.graph
         (Spt_synch.protocol ~source)
         ~pulses)

  let invariant = sync_invariant
end

module Sync_beta_p = struct
  let name = "sync-beta"
  let summary = "synchronizer beta_w running the SPT wave (Section 4)"
  let category = Synchronizer
  let caps = { default_caps with synchronous_only = true }

  let claimed =
    [ Claim.comm "E + D * V"; Claim.time "D^2" ]

  let run cfg =
    let source = cfg.Run.root and pulses = sync_pulses cfg in
    sync_outcome ~name ~source ~pulses
      (Synchronizer.run_beta ?delay:cfg.Run.delay ?faults:cfg.Run.faults
         ~reliable:cfg.Run.reliable cfg.Run.graph
         (Spt_synch.protocol ~source)
         ~pulses)

  let invariant = sync_invariant
end

module Sync_gamma_p = struct
  let name = "sync-gamma-w"
  let summary =
    "synchronizer gamma_w over the normalized network (Sections 4-5)"

  let category = Synchronizer
  let caps = { default_caps with synchronous_only = true }

  let claimed =
    [ Claim.comm "E + D * n * logn"; Claim.time "D^2 * logn" ]

  let run cfg =
    let source = cfg.Run.root and pulses = sync_pulses cfg in
    let states, o =
      Synchronizer.run_transformed ?delay:cfg.Run.delay
        ?faults:cfg.Run.faults ~reliable:cfg.Run.reliable ?k:cfg.Run.k
        cfg.Run.graph
        (Spt_synch.protocol ~source)
        ~pulses
    in
    outcome ~name ~measures:o.Synchronizer.total
      ~transport:
        {
          Net.retransmissions = o.Synchronizer.retransmissions;
          restarts = 0;
        }
      ~info:
        [
          ("ack_comm", string_of_int o.Synchronizer.ack_comm);
          ("control_comm", string_of_int o.Synchronizer.control_comm);
        ]
      (Outcome.Sync_states
         { source; states; pulses; proto_comm = o.Synchronizer.proto_comm })

  let invariant cfg (o : Outcome.t) =
    (* The transformed pipeline reports communication on the normalized
       network; only the state comparison is meaningful here. *)
    match o.Outcome.payload with
    | Outcome.Sync_states { source; states; pulses; proto_comm = _ } ->
      let reference =
        Csap_dsim.Sync_runner.run cfg.Run.graph
          (Spt_synch.protocol ~source)
          ~pulses
      in
      if states = reference.Csap_dsim.Sync_runner.states then Ok ()
      else Error "states differ from the synchronous reference execution"
    | _ -> Error "unexpected payload"
end

(* ------------------------------------------------------------------ *)
(* Section 7.1: the lower-bound family.                                *)
(* ------------------------------------------------------------------ *)

module Lower_bound_p = struct
  let name = "lower-bound-gn"
  let summary = "executable Omega(min{E, nV}) witness on G_n (Section 7.1)"
  let category = Bound

  (* The run ignores cfg.delay entirely (the hybrid's comm bound is
     schedule-free), so an adaptive adversary would never be consulted:
     reject it rather than silently ignore it. *)
  let caps =
    {
      default_caps with
      needs_root = false;
      supports_faults = false;
      supports_reliable = false;
      fixed_family = true;
      supports_adaptive = false;
    }

  (* The hybrid's communication on G_n: it spends at most twice the
     cheaper branch, whose own constants differ (DFS ~ 4E, MST_centr
     ~ nV) — so the min's arms carry their constants, or the fit sees
     a phantom slope through the crossover. The run reports no
     meaningful completion time, so no time claim. *)
  let claimed =
    [ Claim.comm ~regime:"the G_n(x) family" "min(8 * E, 2 * n * V)" ]

  (* The run ignores [cfg.graph]'s topology: G_n is rebuilt from its
     size parameters ([fixed_family]). *)
  let params cfg =
    let n = max 4 (G.n cfg.Run.graph) in
    let x = max 2 (G.max_weight cfg.Run.graph) in
    (n, x)

  let run cfg =
    let n, x = params cfg in
    let r = Lower_bound.run_on_gn ~n ~x in
    outcome ~name
      ~measures:
        { Measures.comm = r.Lower_bound.hybrid_comm; time = 0.0; messages = 0 }
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
      (Outcome.Gn_bounds r)

  let invariant _cfg (o : Outcome.t) =
    match o.Outcome.payload with
    | Outcome.Gn_bounds r ->
      let gn = Csap_graph.Generators.lower_bound_gn r.Lower_bound.n
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
    | _ -> Error "unexpected payload"
end

(* ------------------------------------------------------------------ *)
(* The registry.                                                       *)
(* ------------------------------------------------------------------ *)

let registry : entry list =
  [
    (module Flood_p);
    (module Dfs_p);
    (module Con_hybrid_p);
    (module Mst_centr_p);
    (module Mst_ghs_p);
    (module Mst_fast_p);
    (module Mst_hybrid_p);
    (module Spt_centr_p);
    (module Spt_synch_p);
    (module Spt_recur_p);
    (module Spt_hybrid_p);
    (module Spt_async_p);
    (module Slt_dist_p);
    (module Global_sum_p);
    (module Clock_alpha_p);
    (module Clock_beta_p);
    (module Clock_gamma_p);
    (module Sync_alpha_p);
    (module Sync_beta_p);
    (module Sync_gamma_p);
    (module Lower_bound_p);
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
  match cfg.Run.adversary with
  | Some (Csap_dsim.Adversary.Adaptive _) -> true
  | Some (Csap_dsim.Adversary.Oblivious _) | None -> false

let validate (module P : S) cfg =
  let n = G.n cfg.Run.graph in
  if P.caps.needs_root && (cfg.Run.root < 0 || cfg.Run.root >= n) then
    invalid_arg
      (Printf.sprintf "%s: root %d out of range [0, %d)" P.name cfg.Run.root
         n);
  if cfg.Run.faults <> None && not P.caps.supports_faults then
    invalid_arg (Printf.sprintf "%s: fault plans not supported" P.name);
  if cfg.Run.reliable && not P.caps.supports_reliable then
    invalid_arg
      (Printf.sprintf "%s: reliable transport not supported" P.name);
  (match cfg.Run.adversary with
  | None -> ()
  | Some adv ->
    if cfg.Run.delay <> None then
      reject_knob P.name ~knob:"adversary"
        "conflicts with an explicit delay model";
    if Csap_dsim.Adversary.is_adaptive adv && not P.caps.supports_adaptive
    then
      reject_knob P.name ~knob:"adversary" "adaptive adversaries not supported");
  match cfg.Run.domains with
  | None -> ()
  | Some d ->
    if d < 1 then
      invalid_arg (Printf.sprintf "%s: domains %d < 1" P.name d);
    if d > 1 then begin
      if not P.caps.supports_domains then
        reject_knob P.name ~knob:"domains"
          "partitioned execution not supported";
      if cfg.Run.faults <> None || cfg.Run.reliable then
        reject_knob P.name ~knob:"domains"
          "partitioned execution excludes faults/reliable transport";
      if cfg.Run.trace <> None then
        reject_knob P.name ~knob:"domains"
          "partitioned execution cannot record traces";
      if adaptive_of cfg then
        reject_knob P.name ~knob:"adversary"
          "partitioned execution requires an oblivious (order-independent) \
           adversary";
      (* The effective model: an oblivious adversary is a delay. *)
      let delay =
        match cfg.Run.adversary with
        | Some (Csap_dsim.Adversary.Oblivious d) -> Some d
        | Some (Csap_dsim.Adversary.Adaptive _) | None -> cfg.Run.delay
      in
      match delay with
      | Some dl when not (Delay.order_independent dl) ->
        reject_knob P.name ~knob:"domains"
          "partitioned execution requires an order-independent delay model"
      | _ -> ()
    end

let execute ((module P : S) as entry) cfg =
  validate entry cfg;
  (* An oblivious adversary is just a delay model: fold it into
     [cfg.delay] (validation guaranteed the slot is free). An adaptive
     one is installed as the ambient adversary for the scope of the run,
     so engines the protocol builds internally pick it up — the same
     mechanism as the ambient trace collector. *)
  let cfg, in_scope =
    match cfg.Run.adversary with
    | None -> (cfg, fun f -> f ())
    | Some (Csap_dsim.Adversary.Oblivious d) ->
      ({ cfg with Run.delay = Some d; adversary = None }, fun f -> f ())
    | Some (Csap_dsim.Adversary.Adaptive a) ->
      (cfg, fun f -> Csap_dsim.Adversary.with_ambient a f)
  in
  in_scope (fun () ->
      match cfg.Run.trace with
      | None -> P.run cfg
      | Some prefix ->
        let o, traces =
          Csap_dsim.Trace.with_collector (fun () -> P.run cfg)
        in
        List.iteri
          (fun i tr ->
            Csap_dsim.Trace.save_jsonl tr
              (Printf.sprintf "%s--%s--%d.jsonl" prefix P.name i))
          traces;
        o)

let run ?root ?delay ?adversary ?faults ?reliable ?trace ?pulses ?strip ?k ?q
    ?domains entry graph =
  execute entry
    (Run.make ?root ?delay ?adversary ?faults ?reliable ?trace ?pulses ?strip
       ?k ?q ?domains graph)
