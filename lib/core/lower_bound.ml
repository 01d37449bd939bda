module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

let id_ferrying_cost ~n ~x =
  let total = ref 0 in
  for i = 1 to n / 2 do
    let hops = n + 1 - (2 * i) in
    if hops > 0 then total := !total + hops
  done;
  x * !total

let check_split_indistinguishable ~n ~i ~x =
  let gn = Gen.lower_bound_gn n ~x in
  let gni = Gen.lower_bound_gn_i n ~i ~x in
  let edge_set g =
    Array.to_list (G.edges g)
    |> List.map (fun (e : G.edge) -> (e.u, e.v, e.w))
    |> List.sort compare
  in
  let a = edge_set gn and b = edge_set gni in
  let diff =
    List.filter (fun e -> not (List.mem e b)) a
    @ List.filter (fun e -> not (List.mem e a)) b
  in
  List.length diff

type gn_run = {
  n : int;
  x : int;
  script_e : int;
  n_times_v : int;
  flood_comm : int;
  dfs_comm : int;
  hybrid_comm : int;
}

let gn_params g = (max 4 (G.n g), max 2 (G.max_weight g))

let run_on_gn ~n ~x =
  let g = Gen.lower_bound_gn n ~x in
  let flood = Flood.run g ~source:0 in
  let dfs = Dfs_token.run g ~root:0 in
  let hybrid = Con_hybrid.run g ~root:0 in
  {
    n;
    x;
    script_e = G.total_weight g;
    n_times_v = n * Csap_graph.Mst.weight g;
    flood_comm = flood.Flood.measures.Measures.comm;
    dfs_comm = dfs.Dfs_token.measures.Measures.comm;
    hybrid_comm = hybrid.Con_hybrid.measures.Measures.comm;
  }
