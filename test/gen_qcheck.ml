(* Shared QCheck generators for connected weighted graphs. *)

module G = Csap_graph.Graph

(* A connected random graph described by (seed, n, extra_edges, wmax);
   shrinks toward smaller n. *)
let connected_graph_gen ?(max_n = 24) ?(max_wmax = 16) () =
  let open QCheck in
  let gen =
    Gen.map
      (fun (seed, n, extra, wmax) ->
        let n = 2 + n and wmax = 1 + wmax in
        let rng = Csap_graph.Rng.create seed in
        Csap_graph.Generators.random_connected rng n ~extra_edges:extra ~wmax)
      (Gen.quad (Gen.int_bound 1_000_000)
         (Gen.int_bound (max_n - 2))
         (Gen.int_bound 20)
         (Gen.int_bound (max_wmax - 1)))
  in
  make ~print:(Format.asprintf "%a" G.pp) gen

(* Connected graphs from every family whose shape matters to the distance
   parameters: uniform-weight families full of equal eccentricities (the
   centre tie-break), the paper's lower-bound and heavy-bypass families,
   geometric graphs, and random graphs with unit and with widely spread
   weights. [max_size] keeps every family small enough for the O(n^2)
   all-sources oracles. *)
let family_graph_gen ?(max_size = 30) () =
  let open QCheck in
  let module Gn = Csap_graph.Generators in
  let rng = Csap_graph.Rng.create in
  let families =
    [|
      (fun _ s w -> Gn.grid (1 + (s mod 5)) (2 + (s / 5)) ~w);
      (fun _ s w -> Gn.cycle (3 + s) ~w);
      (fun _ s w -> Gn.path (1 + s) ~w);
      (fun _ s w -> Gn.star (2 + s) ~w);
      (fun _ s w -> Gn.complete (2 + (s mod 16)) ~w);
      (fun _ s w -> Gn.lower_bound_gn (4 + s) ~x:(1 + w));
      (fun seed s _ -> Gn.chorded_cycle (5 + s) ~chord_w:(1 + (seed mod 64)));
      (fun seed s _ -> Gn.bkj_star_cycle (3 + s) ~heavy:(1 + (seed mod 64)));
      (fun seed s _ ->
        Gn.random_geometric (rng seed) (2 + s) ~degree:3 ~scale:20.0);
      (fun seed s _ ->
        Gn.random_connected (rng seed) (2 + s) ~extra_edges:(seed mod 24)
          ~wmax:1);
      (fun seed s _ ->
        Gn.random_connected (rng seed) (2 + s) ~extra_edges:(seed mod 24)
          ~wmax:50);
    |]
  in
  let gen =
    Gen.map
      (fun (family, seed, size, w) -> families.(family) seed size (1 + w))
      (Gen.quad
         (Gen.int_bound (Array.length families - 1))
         (Gen.int_bound 1_000_000) (Gen.int_bound max_size) (Gen.int_bound 3))
  in
  make ~print:(Format.asprintf "%a" G.pp) gen

let graph_and_vertex ?(max_n = 24) ?(max_wmax = 16) () =
  let open QCheck in
  let gen =
    Gen.map
      (fun (seed, n, extra, wmax) ->
        let n = 2 + n and wmax = 1 + wmax in
        let rng = Csap_graph.Rng.create seed in
        let g =
          Csap_graph.Generators.random_connected rng n ~extra_edges:extra ~wmax
        in
        (g, Csap_graph.Rng.int rng n))
      (Gen.quad (Gen.int_bound 1_000_000)
         (Gen.int_bound (max_n - 2))
         (Gen.int_bound 20)
         (Gen.int_bound (max_wmax - 1)))
  in
  make
    ~print:(fun (g, v) -> Format.asprintf "%a / src=%d" G.pp g v)
    gen
