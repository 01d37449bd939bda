type t = {
  root : int;
  parents : int array;
  weights : int array;
  children : int list array;
  depth : int array;
  preorder : int array;
}

(* Builds children lists, then computes depths and a preorder without
   recursion so that very deep trees (paths) do not overflow the stack. *)
let of_parents ~root ~parents ~weights =
  let n = Array.length parents in
  if Array.length weights <> n then
    invalid_arg "Tree.of_parents: array length mismatch";
  if root < 0 || root >= n then invalid_arg "Tree.of_parents: bad root";
  if parents.(root) <> -1 then
    invalid_arg "Tree.of_parents: root must have parent -1";
  let children = Array.make n [] in
  Array.iteri
    (fun v p ->
      if v <> root then begin
        if p < 0 || p >= n then
          invalid_arg "Tree.of_parents: parent out of range";
        if weights.(v) < 1 then
          invalid_arg "Tree.of_parents: non-positive edge weight";
        children.(p) <- v :: children.(p)
      end)
    parents;
  Array.iteri (fun v cs -> children.(v) <- List.sort compare cs) children;
  let depth = Array.make n (-1) in
  let preorder = Array.make n (-1) in
  let stack = ref [ root ] in
  depth.(root) <- 0;
  let count = ref 0 in
  let rec loop () =
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      preorder.(!count) <- v;
      incr count;
      List.iter
        (fun c ->
          if depth.(c) >= 0 then
            invalid_arg "Tree.of_parents: cycle in parent pointers";
          depth.(c) <- depth.(v) + weights.(c);
          stack := c :: !stack)
        children.(v);
      loop ()
  in
  loop ();
  if !count <> n then
    invalid_arg "Tree.of_parents: not all vertices reachable from root";
  { root; parents = Array.copy parents; weights = Array.copy weights;
    children; depth; preorder }

let n t = Array.length t.parents
let root t = t.root

let parent t v =
  if v = t.root then None else Some (t.parents.(v), t.weights.(v))

let children t v = t.children.(v)

let edges t =
  let acc = ref [] in
  Array.iteri
    (fun v p -> if v <> t.root then acc := (p, v, t.weights.(v)) :: !acc)
    t.parents;
  List.rev !acc

let total_weight t =
  let sum = ref 0 in
  Array.iteri (fun v _ -> if v <> t.root then sum := !sum + t.weights.(v))
    t.parents;
  !sum

let depth t v = t.depth.(v)

let height t = Array.fold_left max 0 t.depth

(* Longest weighted downward path from each vertex, combined pairwise at each
   vertex, gives the tree diameter in one bottom-up pass over the reversed
   preorder. *)
let diameter t =
  let n = n t in
  let down = Array.make n 0 in
  let best = ref 0 in
  for i = n - 1 downto 0 do
    let v = t.preorder.(i) in
    let top1 = ref 0 and top2 = ref 0 in
    List.iter
      (fun c ->
        let len = down.(c) + t.weights.(c) in
        if len > !top1 then begin
          top2 := !top1;
          top1 := len
        end
        else if len > !top2 then top2 := len)
      t.children.(v);
    down.(v) <- !top1;
    if !top1 + !top2 > !best then best := !top1 + !top2
  done;
  !best

let path_to_root t v =
  let rec up v acc =
    if v = t.root then List.rev (v :: acc) else up t.parents.(v) (v :: acc)
  in
  up v []

(* The tree path x..y is the root path of x up to the lowest common ancestor,
   then the reversed root path of y below it. *)
let path t x y =
  let px = path_to_root t x and py = path_to_root t y in
  let on_py = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace on_py v ()) py;
  let rec split_at_lca acc = function
    | [] -> assert false
    | v :: rest ->
      if Hashtbl.mem on_py v then (List.rev acc, v) else split_at_lca (v :: acc) rest
  in
  let x_side, lca = split_at_lca [] px in
  let rec below_lca acc = function
    | [] -> assert false
    | v :: rest -> if v = lca then acc else below_lca (v :: acc) rest
  in
  let y_side = below_lca [] py in
  x_side @ (lca :: y_side)

let path_weight t x y =
  let rec sum acc = function
    | [] | [ _ ] -> acc
    | a :: (b :: _ as rest) ->
      let w =
        if t.parents.(a) = b then t.weights.(a)
        else begin
          assert (t.parents.(b) = a);
          t.weights.(b)
        end
      in
      sum (acc + w) rest
  in
  sum 0 (path t x y)

let euler_tour t =
  let n = n t in
  let tour = Array.make ((2 * n) - 1) (-1) in
  let pos = ref 0 in
  let emit v =
    tour.(!pos) <- v;
    incr pos
  in
  (* Explicit stack of (vertex, remaining children) to avoid deep recursion. *)
  let stack = ref [ (t.root, t.children.(t.root)) ] in
  emit t.root;
  let rec loop () =
    match !stack with
    | [] -> ()
    | (_, []) :: rest ->
      stack := rest;
      (match rest with
      | (p, _) :: _ -> emit p
      | [] -> ());
      loop ()
    | (v, c :: cs) :: rest ->
      stack := (c, t.children.(c)) :: (v, cs) :: rest;
      emit c;
      loop ()
  in
  loop ();
  assert (!pos = (2 * n) - 1);
  tour

let is_spanning_tree_of g t =
  Graph.n g = n t
  && List.for_all
       (fun (p, c, w) ->
         match Graph.edge_between g p c with
         | Some (gw, _) -> gw = w
         | None -> false)
       (edges t)

let to_graph t = Graph.create ~n:(n t) (edges t)

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>tree root=%d@ %a@]" t.root
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (p, c, w) ->
         Format.fprintf ppf "%d->%d:%d" p c w))
    (edges t)
