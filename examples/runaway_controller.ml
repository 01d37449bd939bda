(* The controller (Section 5): a protocol that diverges on bad input is
   stopped near its declared budget instead of flooding the network
   forever.

   Run with: dune exec examples/runaway_controller.exe *)

module Net = Csap_dsim.Net
module G = Csap_graph.Graph

type msg = Gossip of int

(* A protocol with a bug: on input "42" a vertex echoes every message
   forever instead of forwarding each fact once. *)
let run ~buggy ~controlled () =
  let g = Csap_graph.Generators.grid 4 4 ~w:3 in
  let c_pi = 2 * G.total_weight g in
  let net = Net.make g in
  let aborted = ref false in
  let ctl =
    Csap.Controller.create ~net ~inject:Fun.id ~initiator:0
      ~threshold:(2 * c_pi)
      ~on_abort:(fun () -> aborted := true)
      ()
  in
  let seen = Array.make (G.n g) false in
  let forward v ~except x =
    G.iter_neighbors g v (fun u _ _ ->
        if u <> except then
          if controlled then Csap.Controller.send ctl ~src:v ~dst:u (Gossip x)
          else net.Net.send ~src:v ~dst:u (Csap.Controller.Payload (Gossip x)))
  in
  let deliver v src (Gossip x) =
    if buggy && x = 42 then forward v ~except:(-1) x (* echo storm *)
    else if not seen.(v) then begin
      seen.(v) <- true;
      forward v ~except:src x
    end
  in
  for v = 0 to G.n g - 1 do
    net.Net.set_handler v (fun ~src m ->
        if controlled then
          match Csap.Controller.handle ctl ~me:v ~src m with
          | Some payload -> deliver v src payload
          | None -> ()
        else
          match m with
          | Csap.Controller.Payload p -> deliver v src p
          | Csap.Controller.Request _ | Csap.Controller.Grant _ -> ())
  done;
  net.Net.schedule 0 (fun () ->
      seen.(0) <- true;
      forward 0 ~except:(-1) (if buggy then 42 else 7));
  let events = net.Net.run ~max_events:100_000 () in
  let m = net.Net.metrics () in
  Format.printf
    "  %-12s %-10s comm=%-8d events=%-7d %s@."
    (if buggy then "buggy" else "correct")
    (if controlled then "controlled" else "bare")
    m.Csap_dsim.Metrics.weighted_comm events
    (if !aborted then "<- controller suspended the execution"
     else if events >= 100_000 then "<- RUNAWAY (cut off by the simulator)"
     else "finished normally")

let () =
  Format.printf "broadcast with budget c_pi, threshold 2 c_pi:@.";
  run ~buggy:false ~controlled:false ();
  run ~buggy:false ~controlled:true ();
  run ~buggy:true ~controlled:false ();
  run ~buggy:true ~controlled:true ();
  Format.printf
    "@.the controller leaves correct executions untouched and halts the@.";
  Format.printf "diverged one after spending at most its threshold.@."
