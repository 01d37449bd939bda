(* Benches F4 and F9: the SPT algorithms table and the strip method
   (paper Figures 4 and 9). *)

module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module P = Csap_graph.Params
module Net = Csap_dsim.Net

let f4_row name build =
  Report.row_job name (fun () ->
      let g = build () in
      let p = P.compute g in
      let e = float_of_int p.P.script_e in
      let n = float_of_int p.P.n in
      let d = float_of_int p.P.script_d in
      let centr =
        (Csap.Centr_growth.run_spt g ~root:0).Csap.Centr_growth.measures
      in
      let spt_w =
        float_of_int
          (Csap_graph.Tree.total_weight (Csap_graph.Paths.spt g ~src:0))
      in
      let synch_full = Csap.Spt_synch.run g ~source:0 in
      let synch = synch_full.Csap.Spt_synch.measures in
      let recur =
        (Csap.Spt_recur.run g ~source:0
           ~strip:(Csap.Spt_recur.default_strip g))
          .Csap.Spt_recur.measures
      in
      let hyb = Csap.Spt_hybrid.run g ~source:0 in
      let centr_bound = n *. spt_w in
      ignore d;
      (* The synchronizer pays its C_p on every transformed pulse (4D + 4W
         of them after the Lemma 4.5 slowdown), so the bound uses that
         count. *)
      let pulses = float_of_int synch_full.Csap.Spt_synch.transformed_pulses in
      let synch_bound = e +. (pulses *. 2.0 *. n *. Report.log2 n /. 4.0) in
      [
        Report.Str name;
        Report.Int p.P.n;
        Report.Int p.P.script_d;
        Report.Int centr.Csap.Measures.comm;
        Report.Float
          (Report.ratio (float_of_int centr.Csap.Measures.comm) centr_bound);
        Report.Int synch.Csap.Measures.comm;
        Report.Float
          (Report.ratio (float_of_int synch.Csap.Measures.comm) synch_bound);
        Report.Int recur.Csap.Measures.comm;
        Report.Int hyb.Csap.Spt_hybrid.total_comm;
        Report.Str
          (match hyb.Csap.Spt_hybrid.winner with
          | Csap.Spt_hybrid.Synch -> "synch"
          | Csap.Spt_hybrid.Recur -> "recur");
      ])

let f4 () =
  let jobs =
    [
      f4_row "grid" (fun () -> Gen.grid 5 6 ~w:4);
      f4_row "random" (fun () ->
          Gen.random_connected (Csap_graph.Rng.create 8) 30 ~extra_edges:40
            ~wmax:10);
      f4_row "bkj" (fun () -> Gen.bkj_star_cycle 20 ~heavy:60);
      f4_row "chorded" (fun () -> Gen.chorded_cycle 24 ~chord_w:64);
    ]
  in
  {
    Report.id = "F4";
    title = "shortest path trees (Figure 4)";
    jobs;
    render =
      (fun results ->
        Format.printf
          "paper: SPT_centr O(n w(SPT)), SPT_synch O(E + D k n log n), \
           SPT_recur O(E^(1+eps)), SPT_hybrid min-combination@.";
        Report.table
          ~columns:
            [
              "family"; "n"; "D"; "centr"; "/bnd"; "synch"; "/bnd"; "recur";
              "hybrid"; "winner";
            ]
          (Report.all_rows results);
        Format.printf
          "shape check: centr and synch track their bounds; the hybrid's \
           total stays within a small factor of the better column.@.");
  }

(* --- F9: the strip method ---------------------------------------------- *)

let strips = [ 1; 2; 4; 8; 16; 32; 64; 128 ]

let f9_strip_job ?spec ~instance build strip =
  Report.row_job
    (Printf.sprintf "%s strip=%d" instance strip)
    (fun () ->
      let g = build () in
      let r = Csap.Spt_recur.run ?spec g ~source:0 ~strip in
      [
        Report.Int strip;
        Report.Int r.Csap.Spt_recur.strips;
        Report.Int r.Csap.Spt_recur.offer_comm;
        Report.Int r.Csap.Spt_recur.sync_comm;
        Report.Int r.Csap.Spt_recur.measures.Csap.Measures.comm;
        Report.Float r.Csap.Spt_recur.measures.Csap.Measures.time;
      ])

let f9_params_job ~instance build =
  Report.row_job
    (Printf.sprintf "%s params" instance)
    (fun () -> [ Report.Str (Format.asprintf "%a" P.pp (P.compute (build ()))) ])

let f9_columns = [ "strip"; "strips"; "offers"; "sync"; "total comm"; "time" ]

let f9 () =
  let build_a () = Gen.grid 7 7 ~w:6 in
  let build_b () =
    Gen.random_connected (Csap_graph.Rng.create 4) 49 ~extra_edges:80 ~wmax:12
  in
  let jobs =
    (f9_params_job ~instance:"A" build_a
    :: List.map (f9_strip_job ~instance:"A" build_a) strips)
    @ (f9_params_job ~instance:"B" build_b
      :: List.map
           (f9_strip_job
              ~spec:{ Net.default with Net.delay = Csap_dsim.Delay.Near_zero }
              ~instance:"B"
              build_b)
           strips)
  in
  let n_strips = List.length strips in
  {
    Report.id = "F9";
    title = "the strip method (Figure 9)";
    jobs;
    render =
      (fun results ->
        Format.printf
          "paper: slicing the D layers into strips trades synchronisation \
           against duplicated exploration work@.";
        (match results.(0) with
        | [ [ Report.Str params ] ] ->
          Format.printf "instance A: 7x7 grid, %s (normalised schedule)@."
            params
        | _ -> assert false);
        Report.table ~columns:f9_columns
          (Report.all_rows (Array.sub results 1 n_strips));
        Format.printf
          "under the delay = weight schedule offers arrive in distance \
           order, so no corrections occur and only the sync cost varies.@.";
        (match results.(n_strips + 1) with
        | [ [ Report.Str params ] ] ->
          Format.printf
            "@.instance B: random, %s (adversarial near-zero delays)@."
            params
        | _ -> assert false);
        Report.table ~columns:f9_columns
          (Report.all_rows (Array.sub results (n_strips + 2) n_strips));
        Format.printf
          "shape check: small strips pay synchronisation, large strips pay \
           correction traffic (offers) under adversarial scheduling - the \
           total has its minimum at an interior strip depth, the balance \
           the recursion of [Awe89] automates.@.");
  }
