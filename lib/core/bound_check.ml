module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module Params = Csap_graph.Params

type sample = {
  label : string;
  params : Params.t;
  measures : Measures.t;
}

type claim_verdict = {
  claim : Protocol.Claim.t;
  verdict : Bound.verdict;
}

(* Which adversary the measures were taken under: the claims are
   worst-case bounds, so fitting worst-case-over-a-battery measures
   against them is the sharper check — but the batteries are heuristic
   (they under-approximate the true sup), so only [Clean] fits gate. *)
type regime = Clean | Sched_worst | Adaptive_worst

let regime_name = function
  | Clean -> "clean"
  | Sched_worst -> "sched-worst"
  | Adaptive_worst -> "adaptive-worst"

type report = {
  name : string;
  family : string;
  regime : regime;
  samples : sample list;
  claims : claim_verdict list;
}

(* ------------------------------------------------------------------ *)
(* Sweeps.                                                             *)
(* ------------------------------------------------------------------ *)

let grid_w = 3

let grids sizes =
  List.map
    (fun (r, c) ->
      (Printf.sprintf "grid %dx%d" r c, Gen.grid r c ~w:grid_w))
    sizes

(* Three cost tiers: quadratic-and-worse protocols sweep small grids,
   the near-linear ones go wider so the fit sees a decade of growth. *)
let small = [ (3, 4); (4, 4); (4, 5); (5, 5); (6, 6) ]
let mid = [ (4, 4); (5, 5); (6, 6); (7, 7); (8, 8) ]
let large = [ (4, 4); (5, 6); (7, 7); (8, 9); (10, 10); (11, 12) ]

(* The G_n sweep: the run rebuilds the family from the carrier graph's
   size parameters (n vertices, max weight x), so a weight-x path is
   the canonical carrier. *)
let gn_x = 4

let gn_carriers =
  List.map
    (fun n -> (Printf.sprintf "G_%d x=%d" n gn_x, Gen.path n ~w:gn_x))
    [ 8; 12; 16; 24; 32; 48; 64; 96; 128 ]

let sweep (module P : Protocol.S) =
  if P.caps.Protocol.fixed_family then ("lower-bound G_n", gn_carriers)
  else
    let tier =
      match P.name with
      | "flood" | "dfs-token" | "spt-async" | "global-sum" | "clock-alpha"
      | "clock-beta" | "clock-gamma" ->
        large
      | "mst-ghs" | "mst-fast" | "spt-synch" | "spt-recur" | "spt-hybrid" ->
        mid
      | _ -> small
    in
    ("grid", grids tier)

(* ------------------------------------------------------------------ *)
(* Measuring and fitting.                                              *)
(* ------------------------------------------------------------------ *)

(* The graph whose parameters the claims range over: normally the one
   we ran on, but a [fixed_family] entry rebuilt its own family from
   the carrier's size parameters — mirror that rebuild. *)
let measured_graph (module P : Protocol.S) g =
  if P.caps.Protocol.fixed_family then
    let n, x = Lower_bound.gn_params g in
    Gen.lower_bound_gn n ~x
  else g

let measure ((module P : Protocol.S) as entry) g =
  let cfg = Protocol.Run.make g in
  let o = Protocol.execute entry cfg in
  {
    label = "";
    params = Params.compute (measured_graph (module P) g);
    measures = o.Protocol.Outcome.measures;
  }

(* Worst-case batteries built from the dsim primitives directly (this
   module sits below the explorer, which owns the full rosters). *)
let regime_battery regime g =
  let module D = Csap_dsim.Delay in
  match regime with
  | Clean -> [ D.Exact ]
  | Sched_worst ->
    [ D.Exact; D.Near_zero; D.race_crossing; D.slow_edge (G.heaviest_edge g) ]
    @ List.map (fun i -> D.seeded (0x5eed + (i * 0x10001))) [ 0; 1; 2; 3 ]
  | Adaptive_worst -> [ D.greedy_commax (); D.time_stretcher () ]

(* Per-metric maxima over the battery: a synthetic worst-case sample
   (its comm and time generally come from different runs, as the
   paper's per-measure worst cases do). *)
let measure_regime ((module P : Protocol.S) as entry) regime g =
  match regime with
  | Clean -> measure entry g
  | _ ->
    let worst =
      List.fold_left
        (fun (acc : Measures.t) delay ->
          let cfg = Protocol.Run.make ~delay g in
          let m = (Protocol.execute entry cfg).Protocol.Outcome.measures in
          {
            Measures.comm = max acc.Measures.comm m.Measures.comm;
            time = Float.max acc.Measures.time m.Measures.time;
            messages = max acc.Measures.messages m.Measures.messages;
          })
        Measures.zero (regime_battery regime g)
    in
    {
      label = "";
      params = Params.compute (measured_graph (module P) g);
      measures = worst;
    }

let metric_value (m : Measures.t) = function
  | Protocol.Claim.Comm -> float_of_int m.Measures.comm
  | Protocol.Claim.Time -> m.Measures.time

let check_entry_regime ?slope_tol ~regime ((module P : Protocol.S) as entry) =
  let family, instances = sweep (module P) in
  (* Worst-case regimes stay on the small tier: the battery multiplies
     the per-instance cost, and a worst-case fit needs fewer points. *)
  let instances =
    if regime = Clean then instances
    else if P.caps.Protocol.fixed_family then instances
    else grids small
  in
  let samples =
    List.map
      (fun (label, g) -> { (measure_regime entry regime g) with label })
      instances
  in
  let claims =
    List.map
      (fun (claim : Protocol.Claim.t) ->
        let pts =
          List.map
            (fun s -> (s.params, metric_value s.measures claim.metric))
            samples
        in
        { claim; verdict = Bound.check ?slope_tol claim.bound pts })
      P.claimed
  in
  { name = P.name; family; regime; samples; claims }

let check_entry ?slope_tol entry =
  check_entry_regime ?slope_tol ~regime:Clean entry

(* The worst-case roster: one cheap target per trade-off family, the
   same spread the explorer sweeps (the rest of the registry would
   re-measure the same engines at battery-multiplied cost). *)
let regime_roster () =
  List.filter_map Protocol.find
    [ "flood"; "mst-ghs"; "spt-synch"; "spt-recur"; "sync-alpha" ]

let failures r =
  List.filter (fun cv -> not cv.verdict.Bound.within) r.claims

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s (%s, %s, %d samples):" r.name r.family
    (regime_name r.regime)
    (List.length r.samples);
  List.iter
    (fun cv ->
      Format.fprintf ppf "@,  %-40s %a"
        (Protocol.Claim.to_string cv.claim)
        Bound.pp_verdict cv.verdict)
    r.claims;
  Format.fprintf ppf "@]"
