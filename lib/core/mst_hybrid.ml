module Net = Csap_dsim.Net
module G = Csap_graph.Graph

type winner =
  | Ghs
  | Mst_centr

type result = {
  mst : Csap_graph.Tree.t;
  winner : winner;
  measures : Measures.t;
  ghs_demand : int;
  centr_estimate : int;
  transport : Net.stats;
}

type msg =
  | A of Mst_ghs.msg Controller.wire
  | B of Centr_growth.msg

let run ?spec g ~root =
  G.check_root "Mst_hybrid.run" g root;
  let net = Net.make ?spec g in
  let w_b = ref 0 in
  let outcome = ref None in
  let ctl_ref = ref None in
  let centr_ref = ref None in
  (* GHS runs while its demand does not exceed MST_centr's estimate. *)
  let permit_centr () =
    match !ctl_ref with
    | None -> false
    | Some ctl -> !outcome = None && !w_b < Controller.demand ctl
  in
  let rebalance () =
    if !outcome = None then begin
      (match !ctl_ref with
      | Some ctl when Controller.demand ctl <= !w_b ->
        (* Fund GHS with slack (2x demand) so the controller's root
           padding has headroom and refill chains amortize. *)
        let target = 2 * Controller.demand ctl in
        if target > Controller.threshold ctl then
          Controller.raise_threshold ctl
            (target - Controller.threshold ctl)
      | _ -> ());
      match !centr_ref with
      | Some centr when permit_centr () -> Centr_growth.resume centr
      | _ -> ()
    end
  in
  let ctl =
    Controller.create ~net
      ~inject:(fun w -> A w)
      ~initiator:root ~threshold:1 ~suspend:true
      ~on_abort:(fun () -> rebalance ())
      ()
  in
  ctl_ref := Some ctl;
  let ghs =
    Mst_ghs.create g
      ~send:(fun ~src ~dst m -> Controller.send ctl ~src ~dst m)
      ~on_done:(fun () -> if !outcome = None then outcome := Some Ghs)
  in
  let centr =
    Centr_growth.create ~net
      ~inject:(fun m -> B m)
      ~mode:Centr_growth.Mst ~root ~may_proceed:permit_centr
      ~on_root_estimate:(fun est ->
        w_b := est;
        rebalance ())
      ~on_done:(fun () -> if !outcome = None then outcome := Some Mst_centr)
      ()
  in
  centr_ref := Some centr;
  for v = 0 to G.n g - 1 do
    net.Net.set_handler v (fun ~src m ->
        if !outcome = None then
          match m with
          | A wire -> (
            match Controller.handle ctl ~me:v ~src wire with
            | Some payload -> Mst_ghs.handle ghs ~me:v ~src payload
            | None -> ())
          | B m -> Centr_growth.handle centr ~me:v ~src m)
  done;
  net.Net.schedule root (fun () -> Mst_ghs.wake ghs root);
  Centr_growth.start centr;
  ignore (net.Net.run ());
  match !outcome with
  | None -> failwith "Mst_hybrid.run: neither algorithm terminated"
  | Some winner ->
    let mst =
      match winner with
      | Ghs -> Mst_ghs.mst ghs
      | Mst_centr -> Centr_growth.tree centr
    in
    {
      mst;
      winner;
      measures = Measures.of_metrics (net.Net.metrics ());
      ghs_demand = Controller.demand ctl;
      centr_estimate = !w_b;
      transport = net.Net.stats ();
    }
