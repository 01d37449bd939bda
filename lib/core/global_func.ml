module Net = Csap_dsim.Net
module Tree = Csap_graph.Tree

type 'a spec = {
  name : string;
  combine : 'a -> 'a -> 'a;
}

let sum = { name = "sum"; combine = ( + ) }
let max_value = { name = "max"; combine = max }
let min_value = { name = "min"; combine = min }
let xor = { name = "xor"; combine = ( lxor ) }
let logical_and = { name = "and"; combine = ( && ) }
let logical_or = { name = "or"; combine = ( || ) }

type 'a result = {
  outputs : 'a array;
  measures : Measures.t;
  transport : Net.stats;
}

type 'a msg =
  | Up of 'a
  | Down of 'a

let run ?spec g ~tree ~values f =
  let n = Csap_graph.Graph.n g in
  if Array.length values <> n then
    invalid_arg "Global_func.run: one value per vertex required";
  if not (Tree.is_spanning_tree_of g tree) then
    invalid_arg "Global_func.run: not a spanning tree of the graph";
  let net = Net.make ?spec g in
  let outputs = Array.map (fun v -> v) values in
  let produced = Array.make n false in
  let acc = Array.copy values in
  let pending = Array.init n (fun v -> List.length (Tree.children tree v)) in
  let send_up v =
    match Tree.parent tree v with
    | Some (p, _) -> net.Net.send ~src:v ~dst:p (Up acc.(v))
    | None ->
      (* Root: the global value is ready; start the broadcast. *)
      outputs.(v) <- acc.(v);
      produced.(v) <- true;
      List.iter
        (fun c -> net.Net.send ~src:v ~dst:c (Down acc.(v)))
        (Tree.children tree v)
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src msg ->
        match msg with
        | Up x ->
          acc.(v) <- f.combine acc.(v) x;
          pending.(v) <- pending.(v) - 1;
          assert (pending.(v) >= 0);
          if pending.(v) = 0 then send_up v
        | Down x ->
          ignore src;
          outputs.(v) <- x;
          produced.(v) <- true;
          List.iter
            (fun c -> net.Net.send ~src:v ~dst:c (Down x))
            (Tree.children tree v))
  done;
  net.Net.schedule 0 (fun () ->
      for v = 0 to n - 1 do
        if pending.(v) = 0 then send_up v
      done);
  ignore (net.Net.run ());
  assert (Array.for_all Fun.id produced);
  {
    outputs;
    measures = Measures.of_metrics (net.Net.metrics ());
    transport = net.Net.stats ();
  }

let run_optimal ?spec ?q g ~root ~values f =
  Csap_graph.Graph.check_root "Global_func.run_optimal" g root;
  let slt = Slt.build ?q g ~root in
  run ?spec g ~tree:slt.Slt.tree ~values f

let broadcast ?spec ?q g ~source ~payload =
  Csap_graph.Graph.check_root "Global_func.broadcast" g source;
  let values =
    Array.init (Csap_graph.Graph.n g) (fun v ->
        if v = source then payload else min_int)
  in
  run_optimal ?spec ?q g ~root:source ~values max_value
