(* Bench CT: the controller's overhead envelope and containment
   (Section 5, Corollary 5.1). *)

module Net = Csap_dsim.Net
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

type fmsg = Wave

let controlled_flood g ~threshold ~buggy =
  let net = Net.make g in
  let aborted = ref false in
  let ctl =
    Csap.Controller.create ~net ~inject:Fun.id ~initiator:0 ~threshold
      ~on_abort:(fun () -> aborted := true)
      ()
  in
  let seen = Array.make (G.n g) false in
  let forward v ~except =
    G.iter_neighbors g v (fun u _ _ ->
        if u <> except then Csap.Controller.send ctl ~src:v ~dst:u Wave)
  in
  for v = 0 to G.n g - 1 do
    net.Net.set_handler v (fun ~src wire ->
        match Csap.Controller.handle ctl ~me:v ~src wire with
        | None -> ()
        | Some Wave ->
          if buggy then forward v ~except:(-1)
          else if not seen.(v) then begin
            seen.(v) <- true;
            forward v ~except:src
          end)
  done;
  net.Net.schedule 0 (fun () ->
      seen.(0) <- true;
      forward 0 ~except:(-1));
  let _ = net.Net.run ~max_events:500_000 () in
  (net.Net.metrics (), ctl, !aborted)

let ct () =
  let envelope_jobs =
    List.map
      (fun n ->
        Report.row_job
          (Printf.sprintf "grid %dx%d" n n)
          (fun () ->
            let g = Gen.grid n n ~w:4 in
            let c_pi = 2 * G.total_weight g in
            let m, ctl, aborted =
              controlled_flood g ~threshold:(2 * c_pi) ~buggy:false
            in
            let c = float_of_int c_pi in
            let envelope = c *. Report.log2 c *. Report.log2 c in
            [
              Report.Int (G.n g);
              Report.Int c_pi;
              Report.Int (Csap.Controller.spent ctl);
              Report.Int m.Csap_dsim.Metrics.weighted_comm;
              Report.Float
                (Report.ratio
                   (float_of_int m.Csap_dsim.Metrics.weighted_comm)
                   c);
              Report.Float
                (Report.ratio
                   (float_of_int m.Csap_dsim.Metrics.weighted_comm)
                   envelope);
              Report.Str (if aborted then "ABORT" else "ok");
            ]))
      [ 3; 4; 5; 6; 8 ]
  in
  let containment_jobs =
    List.map
      (fun threshold ->
        Report.row_job
          (Printf.sprintf "threshold=%d" threshold)
          (fun () ->
            let g = Gen.grid 4 4 ~w:3 in
            let m, ctl, aborted = controlled_flood g ~threshold ~buggy:true in
            [
              Report.Int threshold;
              Report.Int (Csap.Controller.spent ctl);
              Report.Int m.Csap_dsim.Metrics.weighted_comm;
              Report.Str (if aborted then "suspended" else "ran away!");
            ]))
      [ 50; 200; 800; 3200 ]
  in
  let n_env = List.length envelope_jobs in
  {
    Report.id = "CT";
    title = "the controller (Section 5)";
    jobs = envelope_jobs @ containment_jobs;
    render =
      (fun results ->
        Format.printf
          "paper: c_phi = O(c_pi log^2 c_pi) (Cor 5.1); divergent \
           executions suspended near the threshold@.";
        Report.subheading "correct executions: overhead envelope";
        Report.table
          ~columns:
            [
              "n"; "c_pi"; "spent"; "c_phi"; "c_phi/c_pi"; "/(c log^2 c)";
              "";
            ]
          (Report.all_rows (Array.sub results 0 n_env));
        Report.subheading "divergent executions: containment";
        Report.table
          ~columns:[ "threshold"; "spent"; "total comm"; "outcome" ]
          (Report.all_rows
             (Array.sub results n_env (Array.length results - n_env)));
        Format.printf
          "shape check: c_phi/c_pi grows slower than log^2 c_pi; divergent \
           runs spend at most their threshold before suspension.@.");
  }
