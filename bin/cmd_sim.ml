(* Simulate a TTA cluster: boot it, optionally inject a coupler or node
   fault, and print the event log.

   Examples:
     tta sim                                      # clean boot, 4 nodes
     tta sim --coupler-fault out-of-slot --config full-shifting
     tta sim --node-fault sos --node 2
     tta sim --campaign 50 --config full-shifting --metrics
*)

open Ttp

let print_summary cluster =
  print_endline "== availability ==";
  Format.printf "%a@." Sim.Stats.pp (Sim.Stats.of_cluster cluster);
  print_endline "== event log ==";
  print_string (Sim.Event_log.to_string (Sim.Cluster.log cluster))

let campaign_json feature_set nodes (s : Sim.Campaign.summary) =
  Json.Obj
    [
      ("feature_set", Json.String (Guardian.Feature_set.to_string feature_set));
      ("nodes", Json.Int nodes);
      ("trials", Json.Int s.Sim.Campaign.trials);
      ("with_healthy_freeze", Json.Int s.Sim.Campaign.with_healthy_freeze);
      ("with_cluster_loss", Json.Int s.Sim.Campaign.with_cluster_loss);
      ( "with_integration_block",
        Json.Int s.Sim.Campaign.with_integration_block );
    ]

let run_campaign feature_set nodes trials json_path obs =
  Printf.printf
    "campaign: %d trials, %d nodes, %s couplers, one random coupler fault \
     per trial\n%!"
    trials nodes
    (Guardian.Feature_set.to_string feature_set);
  let outcomes =
    Sim.Campaign.run ~obs:(Cli.obs_track obs "campaign") ~feature_set ~nodes
      ~trials ()
  in
  let s = Sim.Campaign.summarize outcomes in
  Printf.printf "trials:                 %d\n" s.Sim.Campaign.trials;
  Printf.printf "healthy node froze:     %d\n" s.Sim.Campaign.with_healthy_freeze;
  Printf.printf "cluster lost majority:  %d\n" s.Sim.Campaign.with_cluster_loss;
  Printf.printf "re-integration blocked: %d\n"
    s.Sim.Campaign.with_integration_block;
  Cli.write_json ~what:"results" json_path (campaign_json feature_set nodes s)

let run feature_set_name nodes slots coupler_fault channel node_fault node
    campaign json_path obs =
  let feature_set = Cli.feature_set_of_config feature_set_name in
  (match campaign with
  | Some trials -> run_campaign feature_set nodes trials json_path obs
  | None ->
      let channel = Cli.index ~flag:"--channel" ~count:2 channel in
      let node = Cli.index ~flag:"--node" ~count:nodes node in
      let cluster = Sim.Cluster.create ~feature_set (Medl.uniform ~nodes ()) in
      let booted = Sim.Cluster.boot cluster in
      Printf.printf "boot: %s\n"
        (if booted then "all nodes active" else "startup incomplete");
      (match coupler_fault with
      | "none" -> ()
      | name -> (
          match Guardian.Fault.of_string name with
          | Some f -> Sim.Cluster.set_coupler_fault cluster ~channel f
          | None ->
              prerr_endline
                ("unknown --coupler-fault '" ^ name
               ^ "' (expected silence | bad-frame | out-of-slot)");
              exit 2));
      (match Sim.Node_fault.of_string ~nodes ~node node_fault with
      | Some Sim.Node_fault.Healthy -> ()
      | Some f -> Sim.Cluster.set_node_fault cluster ~node f
      | None ->
          prerr_endline
            ("unknown --node-fault '" ^ node_fault
           ^ "' (expected crash | sos | babbling | bad-cstate | masquerade)");
          exit 2);
      Sim.Cluster.run cluster ~slots;
      print_summary cluster);
  Cli.obs_finish obs;
  0

let cmd =
  let open Cmdliner in
  let slots =
    Arg.(
      value & opt int 32
      & info [ "s"; "slots" ] ~doc:"Slots to run after boot/injection.")
  in
  let coupler_fault =
    Arg.(
      value & opt string "none"
      & info [ "coupler-fault" ] ~docv:"FAULT"
          ~doc:"Inject after boot: silence, bad-frame, out-of-slot.")
  in
  let channel =
    Arg.(
      value & opt int 0 & info [ "channel" ] ~doc:"Channel for the coupler fault.")
  in
  let node_fault =
    Arg.(
      value & opt string "none"
      & info [ "node-fault" ] ~docv:"FAULT"
          ~doc:"Inject after boot: crash, sos, babbling, bad-cstate, masquerade.")
  in
  let node =
    Arg.(value & opt int 0 & info [ "node" ] ~doc:"Node for the node fault.")
  in
  let campaign =
    Arg.(
      value
      & opt (some int) None
      & info [ "campaign" ] ~docv:"TRIALS"
          ~doc:"Run a randomized fault-injection campaign instead.")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Simulate a TTA cluster with fault injection")
    Term.(
      const run
      $ Cli.config ~default:"time-windows" ()
      $ Cli.nodes () $ slots $ coupler_fault $ channel $ node_fault $ node
      $ campaign $ Cli.json () $ Cli.obs ())
