module D = Csap_dsim.Delay
module T = Csap_dsim.Trace
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module P = Csap.Protocol

let flood = P.find_exn "flood"
let ghs = P.find_exn "mst-ghs"

(* ---- specs and names --------------------------------------------------- *)

let test_spec_parsing () =
  Alcotest.(check (list string))
    "builtin roster" [ "greedy"; "stretch" ] D.adaptive_specs;
  (match D.adaptive_of_spec "greedy" with
  | Ok (D.Adaptive a) ->
    Alcotest.(check string) "greedy name" "greedy-commax" a.D.name
  | _ -> Alcotest.fail "greedy must parse to an adaptive model");
  (match D.adaptive_of_spec "stretch" with
  | Ok (D.Adaptive _ as t) ->
    Alcotest.(check string) "stretch name" "time-stretcher"
      (Format.asprintf "%a" D.pp t)
  | Ok _ -> Alcotest.fail "stretch must parse to an adaptive model"
  | Error e -> Alcotest.fail e);
  (match D.adaptive_of_spec "bogus" with
  | Error msg ->
    Alcotest.(check string) "error lists the vocabulary"
      "unknown adversary spec \"bogus\" (expected one of: greedy, stretch)"
      msg
  | Ok _ -> Alcotest.fail "bogus spec must be rejected");
  (* An adaptive model is order-dependent, has no static lower bound,
     and cannot be sampled outside an engine. *)
  let greedy = D.greedy_commax () in
  Alcotest.(check bool) "adaptive is order-dependent" false
    (D.order_independent greedy);
  Alcotest.(check bool) "no static lower bound" true
    (D.lower_bound greedy ~w:3 = None);
  match D.sample_into greedy ~edge_id:0 ~dir:0 ~nth:0 ~w:3 [| 0.0 |] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "sample_into must refuse an adaptive model"

(* ---- the observation view ---------------------------------------------- *)

let test_probe_observations () =
  (* A probing adversary checks the [Obs] invariants at every send. *)
  let g = Gen.grid 3 3 ~w:4 in
  let m = G.m g in
  let calls = ref 0 and last_now = ref neg_infinity in
  let probe =
    D.Adaptive
      {
        D.name = "probe";
        next_delay =
          (fun obs ~edge_id ~dir ~nth ~w ->
            incr calls;
            Alcotest.(check bool) "clock is monotone" true
              (D.Obs.now obs >= !last_now);
            last_now := D.Obs.now obs;
            Alcotest.(check bool) "legal send site" true
              (edge_id >= 0 && edge_id < m
              && (dir = 0 || dir = 1)
              && nth >= 0);
            Alcotest.(check bool) "busiest edge in range or -1" true
              (let b = D.Obs.busiest_edge obs in
               b = -1 || (b >= 0 && b < m));
            float_of_int w);
      }
  in
  let o = P.run ~delay:probe flood g in
  Alcotest.(check int) "consulted once per paid message"
    o.P.Outcome.measures.Csap.Measures.messages !calls

(* ---- decision traces and replay ---------------------------------------- *)

let record_run entry delay g =
  let o, traces = T.with_collector (fun () -> P.run ~delay entry g) in
  match traces with
  | [ tr ] -> (o, tr)
  | l -> Alcotest.fail (Printf.sprintf "expected one trace, got %d"
                          (List.length l))

let test_decision_trace_roundtrip () =
  let g = Gen.grid 4 4 ~w:5 in
  let _, tr = record_run flood (D.greedy_commax ()) g in
  let decisions = T.decisions tr in
  Alcotest.(check bool) "decisions recorded" true
    (Array.length decisions > 0);
  (* Every decision twins a send: same identity, same delay. *)
  let sends =
    Array.of_seq
      (Seq.filter (fun ev -> ev.T.kind = T.Send)
         (Array.to_seq (T.events tr)))
  in
  Alcotest.(check int) "one decision per send" (Array.length sends)
    (Array.length decisions);
  Array.iter2
    (fun d s ->
      Alcotest.(check bool) "decision twins its send" true
        (d.T.edge = s.T.edge && d.T.dir = s.T.dir && d.T.nth = s.T.nth
        && d.T.delay = s.T.delay))
    decisions sends;
  (* JSONL round-trips the new kind. *)
  let tr' = T.of_jsonl (T.to_jsonl tr) in
  Alcotest.(check bool) "decision kind survives JSONL" true (T.equal tr tr');
  Alcotest.(check int) "without_decisions strips them" 0
    (Array.length (T.decisions (T.without_decisions tr)))

let replay_matches entry delay g =
  let o, tr = record_run entry delay g in
  let o', tr' = record_run entry (T.recorded tr) g in
  T.equal (T.without_decisions tr) tr'
  && o.P.Outcome.measures = o'.P.Outcome.measures

let test_replay_reproduces () =
  let g = Gen.grid 4 4 ~w:5 in
  List.iter
    (fun adv ->
      Alcotest.(check bool)
        (Format.asprintf "%a replays bit-identically" D.pp adv)
        true
        (replay_matches flood adv g))
    [ D.greedy_commax (); D.time_stretcher () ];
  (* The decision trace alone is a sufficient schedule: stripping the
     Send records before building the oracle changes nothing. *)
  let _, tr = record_run ghs (D.time_stretcher ()) g in
  let decision_only = T.create () in
  Array.iter
    (fun ev -> if ev.T.kind = T.Decision then T.add decision_only ev)
    (T.events tr);
  let _, tr' = record_run ghs (T.recorded decision_only) g in
  Alcotest.(check bool) "decision records alone replay the run" true
    (T.equal (T.without_decisions tr) tr')

(* Every engine a protocol builds must receive its [?delay]: under an
   adaptive model each paid, surviving send of every collected trace has
   its Decision twin. A protocol that forgets to thread the model into
   one of its engines leaves that engine's sends undecided. *)
let test_adaptive_reaches_every_engine () =
  let g = Gen.grid 4 4 ~w:5 in
  List.iter
    (fun entry ->
      let (module M : P.S) = entry in
      if M.caps.P.supports_adaptive then begin
        let _, traces =
          T.with_collector (fun () ->
              P.run ~delay:(D.greedy_commax ()) entry g)
        in
        Alcotest.(check bool) (M.name ^ ": traces collected") true
          (traces <> []);
        List.iteri
          (fun i tr ->
            let count kind =
              Array.fold_left
                (fun acc ev -> if ev.T.kind = kind then acc + 1 else acc)
                0 (T.events tr)
            in
            Alcotest.(check int)
              (Printf.sprintf "%s: trace %d decisions = sends" M.name i)
              (count T.Send) (count T.Decision))
          traces
      end)
    P.registry

(* ---- capability guards -------------------------------------------------- *)

let test_pengine_rejects_adaptive () =
  let g = Gen.grid 4 4 ~w:4 in
  (* Uniform knob-named validation error through the registry... *)
  (match P.run ~delay:(D.greedy_commax ()) ~domains:2 flood g with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "knob-named rejection"
      "flood: adversary: partitioned execution requires an oblivious \
       (order-independent) adversary"
      msg
  | _ -> Alcotest.fail "adaptive + domains must be rejected");
  (* ...and in Pengine itself, whose order-independence check covers an
     adaptive model like any other order-dependent one. *)
  match
    (Csap_dsim.Pengine.create ~delay:(D.greedy_commax ()) ~domains:2 g
      : unit Csap_dsim.Pengine.t)
  with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "Pengine's delay check rejects it" true
      (String.length msg >= 8 && String.sub msg 0 8 = "Pengine:")
  | _ -> Alcotest.fail "Pengine must reject an adaptive model"

(* ---- the QCheck replay property ---------------------------------------- *)

(* Across graph families x seeds x protocols x built-ins: an adaptive
   run's decision trace, replayed as an oblivious oracle, reproduces
   measures and trace bit for bit. *)
let prop_adaptive_replay =
  QCheck.Test.make ~count:25 ~name:"adaptive runs replay as oblivious"
    QCheck.(
      triple (int_range 0 2) (int_range 1 1000) (int_range 0 3))
    (fun (fam, seed, pick) ->
      let g =
        match fam with
        | 0 -> Gen.grid 3 3 ~w:(1 + (seed mod 7))
        | 1 ->
          Gen.random_connected
            (Csap_graph.Rng.create seed)
            9 ~extra_edges:6 ~wmax:8
        | _ -> Gen.chorded_cycle 8 ~chord_w:(1 + (seed mod 9))
      in
      let entry = if pick land 1 = 0 then flood else ghs in
      let delay =
        if pick land 2 = 0 then D.greedy_commax () else D.time_stretcher ()
      in
      replay_matches entry delay g)

let suite =
  [
    Alcotest.test_case "spec parsing and names" `Quick test_spec_parsing;
    Alcotest.test_case "observation view invariants at every send" `Quick
      test_probe_observations;
    Alcotest.test_case "decision trace twins sends, survives JSONL" `Quick
      test_decision_trace_roundtrip;
    Alcotest.test_case "built-ins replay bit-identically" `Quick
      test_replay_reproduces;
    Alcotest.test_case "adaptive model reaches every engine" `Quick
      test_adaptive_reaches_every_engine;
    Alcotest.test_case "pengine rejects adaptive adversaries" `Quick
      test_pengine_rejects_adaptive;
    QCheck_alcotest.to_alcotest prop_adaptive_replay;
  ]
