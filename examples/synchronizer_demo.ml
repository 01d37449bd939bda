(* Synchronizer gamma_w in action (Section 4): run a synchronous protocol
   on an asynchronous network with nasty random delays, and show the
   execution is *identical* to the synchronous reference while the
   per-pulse overhead stays far below the naive alpha_w synchronizer's.

   The protocol here is an in-synch gossip: on every pulse divisible by
   w(e), a vertex ships its state digest over e (Definition 4.2 — what the
   Lemma 4.5 transformation produces for arbitrary protocols).

   Run with: dune exec examples/synchronizer_demo.exe *)

module G = Csap_graph.Graph
module SP = Csap_dsim.Sync_protocol
module Net = Csap_dsim.Net

let gossip =
  {
    SP.init = (fun _ ~me -> me + 1);
    on_pulse =
      (fun g ~me ~pulse ~inbox state ->
        let state =
          List.fold_left (fun acc (src, x) -> (acc * 31) + x + src) state inbox
        in
        let sends =
          List.rev
            (G.fold_neighbors g me
               (fun acc u w _ -> if pulse mod w = 0 then (u, state) :: acc else acc)
               [])
        in
        (state, sends))
  }

let () =
  (* A normalized network (weights are powers of two). *)
  let rng = Csap_graph.Rng.create 7 in
  let g0 =
    Csap_graph.Generators.random_connected rng 40 ~extra_edges:40 ~wmax:60
  in
  let g = Csap.Normalize.graph g0 in
  let pulses = 64 in

  Format.printf
    "network: n=%d m=%d W=%d, running %d pulses of an in-synch gossip@.@."
    (G.n g) (G.m g) (G.max_weight g) pulses;

  (* Ground truth: the weighted synchronous execution. *)
  let reference = Csap_dsim.Sync_runner.run g gossip ~pulses in

  let spec () =
    {
      Net.default with
      Net.delay = Csap_dsim.Delay.Uniform (Csap_graph.Rng.create 99);
    }
  in
  Format.printf "%-10s %12s %16s %14s %8s@." "sync" "proto comm"
    "overhead/pulse" "time/pulse" "exact?";
  List.iter
    (fun (name, run) ->
      let o = run () in
      let exact =
        o.Csap.Synchronizer.states = reference.Csap_dsim.Sync_runner.states
      in
      Format.printf "%-10s %12d %16.1f %14.2f %8b@." name
        o.Csap.Synchronizer.proto_comm o.Csap.Synchronizer.amortized_comm
        o.Csap.Synchronizer.amortized_time exact)
    [
      ( "alpha_w",
        fun () ->
          Csap.Synchronizer.run_alpha ~spec:(spec ()) g gossip ~pulses );
      ( "beta_w",
        fun () -> Csap.Synchronizer.run_beta ~spec:(spec ()) g gossip ~pulses );
      ( "gamma_w",
        fun () ->
          Csap.Synchronizer.run_gamma_w ~spec:(spec ()) ~k:2 g gossip ~pulses );
    ];
  Format.printf
    "@.every synchronizer reproduced the synchronous execution exactly;@.";
  Format.printf
    "gamma_w cleans heavy links once per w(e) pulses instead of every pulse.@."
