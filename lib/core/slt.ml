module G = Csap_graph.Graph
module Tree = Csap_graph.Tree

type t = {
  tree : Tree.t;
  q : float;
  line : int array;
  breakpoints : int list;
  added_paths : (int * int) list;
  mst : Tree.t;
  spt : Tree.t;
}

let weight_bound ~q ~script_v = (1.0 +. (2.0 /. q)) *. float_of_int script_v

let depth_bound ~q ~script_d = ((2.0 *. q) +. 1.0) *. float_of_int script_d

let build ?(q = 2.0) g ~root =
  if q <= 0.0 then invalid_arg "Slt.build: q must be positive";
  let mst = Csap_graph.Mst.prim g ~root in
  let spt = Csap_graph.Paths.spt g ~src:root in
  let line = Tree.euler_tour mst in
  let len = Array.length line in
  (* Prefix mileage along the line. *)
  let mileage = Array.make len 0 in
  for i = 1 to len - 1 do
    let w =
      match G.edge_between g line.(i - 1) line.(i) with
      | Some (w, _) -> w
      | None -> assert false
    in
    mileage.(i) <- mileage.(i - 1) + w
  done;
  (* Collect the subgraph G' as a set of edge ids: the MST plus the SPT
     paths between consecutive breakpoints. *)
  let edge_ids = Hashtbl.create (G.n g * 2) in
  let add_edge u v =
    match G.edge_between g u v with
    | Some (_, id) -> Hashtbl.replace edge_ids id ()
    | None -> assert false
  in
  List.iter (fun (p, c, _) -> add_edge p c) (Tree.edges mst);
  let add_spt_path x y =
    let rec walk = function
      | a :: (b :: _ as rest) ->
        add_edge a b;
        walk rest
      | _ -> ()
    in
    walk (Tree.path spt x y)
  in
  let breakpoints = ref [ 0 ] in
  let added_paths = ref [] in
  let last = ref 0 in
  for i = 1 to len - 1 do
    let line_dist = mileage.(i) - mileage.(!last) in
    let spt_dist = Tree.path_weight spt line.(!last) line.(i) in
    if float_of_int line_dist > q *. float_of_int spt_dist then begin
      add_spt_path line.(!last) line.(i);
      added_paths := (line.(!last), line.(i)) :: !added_paths;
      breakpoints := i :: !breakpoints;
      last := i
    end
  done;
  let subgraph_edges =
    Hashtbl.fold
      (fun id () acc ->
        let e = G.edge g id in
        (e.G.u, e.G.v, e.G.w) :: acc)
      edge_ids []
  in
  let g' = G.create ~n:(G.n g) subgraph_edges in
  let tree = Csap_graph.Paths.spt g' ~src:root in
  {
    tree;
    q;
    line;
    breakpoints = List.rev !breakpoints;
    added_paths = List.rev !added_paths;
    mst;
    spt;
  }

let is_shallow_light t ~script_v ~script_d =
  float_of_int (Tree.total_weight t.tree)
  <= weight_bound ~q:t.q ~script_v +. 1e-9
  && float_of_int (Tree.height t.tree)
     <= depth_bound ~q:t.q ~script_d +. 1e-9

let centre_tree g =
  let _, center = Csap_graph.Paths.radius_and_center g in
  (build g ~root:center).tree
